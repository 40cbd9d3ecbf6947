#include "net/toeplitz.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>

namespace nicsched::net {
namespace {

Ipv4Address ip(std::string_view text) { return *Ipv4Address::parse(text); }

struct MsVector {
  const char* dst_ip;
  std::uint16_t dst_port;
  const char* src_ip;
  std::uint16_t src_port;
  std::uint32_t hash_with_ports;
  std::uint32_t hash_ip_only;
};

// Names each case by its address pair: gtest's default dump of the raw bytes holds
// the string pointers, so the discovered test names would change per run.
void PrintTo(const MsVector& vector, std::ostream* os) {
  *os << vector.src_ip << " to " << vector.dst_ip;
}

// The official Microsoft RSS verification suite for IPv4 (the same vectors
// every NIC vendor validates Toeplitz against).
const MsVector kVectors[] = {
    {"161.142.100.80", 1766, "66.9.149.187", 2794, 0x51ccc178, 0x323e8fc2},
    {"65.69.140.83", 4739, "199.92.111.2", 14230, 0xc626b0ea, 0xd718262a},
    {"12.22.207.184", 38024, "24.19.198.95", 12898, 0x5c2b394a, 0xd2d0a5de},
    {"209.142.163.6", 2217, "38.27.205.30", 48228, 0xafc7327f, 0x82989176},
    {"202.188.127.2", 1303, "153.39.163.191", 44251, 0x10e828a2, 0x5d1809c5},
};

class ToeplitzMsVectors : public ::testing::TestWithParam<MsVector> {};

TEST_P(ToeplitzMsVectors, FourTupleMatchesPublishedHash) {
  const MsVector& vector = GetParam();
  EXPECT_EQ(rss_hash_ipv4_ports(kDefaultRssKey, ip(vector.src_ip),
                                ip(vector.dst_ip), vector.src_port,
                                vector.dst_port),
            vector.hash_with_ports);
}

TEST_P(ToeplitzMsVectors, TwoTupleMatchesPublishedHash) {
  const MsVector& vector = GetParam();
  EXPECT_EQ(rss_hash_ipv4(kDefaultRssKey, ip(vector.src_ip), ip(vector.dst_ip)),
            vector.hash_ip_only);
}

INSTANTIATE_TEST_SUITE_P(MicrosoftSuite, ToeplitzMsVectors,
                         ::testing::ValuesIn(kVectors));

TEST(Toeplitz, EmptyInputHashesToZero) {
  EXPECT_EQ(toeplitz_hash(kDefaultRssKey, {}), 0u);
}

TEST(Toeplitz, InputTooLongForKeyThrows) {
  const std::vector<std::uint8_t> input(37, 0);  // needs 37+4 > 40 key bytes
  EXPECT_THROW(toeplitz_hash(kDefaultRssKey, input), std::invalid_argument);
}

TEST(Toeplitz, HashIsLinearInXor) {
  // Toeplitz is GF(2)-linear: H(a^b) == H(a)^H(b) for equal-length inputs.
  const std::vector<std::uint8_t> a = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> b = {9, 8, 7, 6, 5, 4, 3, 2};
  std::vector<std::uint8_t> axb(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) axb[i] = a[i] ^ b[i];
  EXPECT_EQ(toeplitz_hash(kDefaultRssKey, axb),
            toeplitz_hash(kDefaultRssKey, a) ^ toeplitz_hash(kDefaultRssKey, b));
}

TEST(RssIndirectionTable, RoundRobinInitialization) {
  RssIndirectionTable table(128, 4);
  std::map<std::uint32_t, int> counts;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.entry(i), i % 4);
    counts[table.entry(i)]++;
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [queue, count] : counts) EXPECT_EQ(count, 32);
}

TEST(RssIndirectionTable, QueueForHashUsesLowBits) {
  RssIndirectionTable table(128, 8);
  EXPECT_EQ(table.queue_for_hash(0), table.entry(0));
  EXPECT_EQ(table.queue_for_hash(129), table.entry(1));
  EXPECT_EQ(table.queue_for_hash(0xFFFFFF80u), table.entry(0));
}

TEST(RssIndirectionTable, RemapMovesEntries) {
  RssIndirectionTable table(16, 4);
  table.remap(3, 0);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_NE(table.entry(i), 3u);
  }
}

TEST(RssIndirectionTable, RemapOneMovesExactlyOneEntry) {
  RssIndirectionTable table(16, 4);
  EXPECT_EQ(table.entries_for(3), 4u);
  EXPECT_TRUE(table.remap_one(3, 0));
  EXPECT_EQ(table.entries_for(3), 3u);
  EXPECT_EQ(table.entries_for(0), 5u);
  // Drain queue 3 entirely, then remap_one fails.
  EXPECT_TRUE(table.remap_one(3, 0));
  EXPECT_TRUE(table.remap_one(3, 0));
  EXPECT_TRUE(table.remap_one(3, 0));
  EXPECT_FALSE(table.remap_one(3, 0));
  EXPECT_EQ(table.entries_for(0), 8u);
}

TEST(RssIndirectionTable, RejectsBadSizes) {
  EXPECT_THROW(RssIndirectionTable(0, 4), std::invalid_argument);
  EXPECT_THROW(RssIndirectionTable(100, 4), std::invalid_argument);  // not 2^n
  EXPECT_THROW(RssIndirectionTable(128, 0), std::invalid_argument);
}

TEST(RssSteer, SpreadsFlowsAcrossQueues) {
  RssIndirectionTable table(128, 8);
  std::map<std::uint32_t, int> counts;
  for (std::uint16_t port = 20000; port < 21000; ++port) {
    FiveTuple tuple{Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), port,
                    8080, 17};
    counts[rss_steer(kDefaultRssKey, table, tuple)]++;
  }
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [queue, count] : counts) {
    // 1000 flows over 8 queues: expect roughly 125 each.
    EXPECT_GT(count, 70);
    EXPECT_LT(count, 190);
  }
}

TEST(RssSteer, SameFlowAlwaysSameQueue) {
  RssIndirectionTable table(128, 16);
  const FiveTuple tuple{Ipv4Address(10, 1, 2, 3), Ipv4Address(10, 4, 5, 6),
                        31337, 8080, 17};
  const std::uint32_t queue = rss_steer(kDefaultRssKey, table, tuple);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rss_steer(kDefaultRssKey, table, tuple), queue);
  }
}

}  // namespace
}  // namespace nicsched::net
