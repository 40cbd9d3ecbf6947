// RdmaQueuePair (DESIGN §15): the one-sided-write channel under the `rain`
// family. Delivery latency is write_latency + cq_poll_interval, the
// initiator cost (WQE build + doorbell) is returned to the caller, post
// order equals visibility order, and payload bytes survive intact through
// the recycled ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/rdma.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace nicsched {
namespace {

net::RdmaQueuePair::Config test_config() {
  net::RdmaQueuePair::Config config;
  config.write_latency = sim::Duration::nanos(400);
  config.cq_poll_interval = sim::Duration::nanos(100);
  config.wqe_post_cost = sim::Duration::nanos(30);
  config.doorbell_cost = sim::Duration::nanos(50);
  return config;
}

TEST(RdmaQueuePair, PayloadVisibleAfterTraversalPlusPollSkew) {
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, test_config());

  sim::TimePoint delivered_at;
  int deliveries = 0;
  qp.set_on_receive([&] {
    delivered_at = sim.now();
    ++deliveries;
  });

  const sim::TimePoint posted_at = sim.now();
  const sim::Duration initiator_cost =
      qp.post_write(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(initiator_cost, sim::Duration::nanos(30 + 50))
      << "post_write must return WQE build + doorbell for the caller to "
         "charge on the posting core";

  // Nothing is pollable before the posted write lands.
  EXPECT_TRUE(qp.empty());
  EXPECT_FALSE(qp.poll().has_value());

  sim.run_until(posted_at + sim::Duration::micros(1));
  ASSERT_EQ(deliveries, 1);
  EXPECT_EQ(delivered_at - posted_at, sim::Duration::nanos(400 + 100));

  ASSERT_EQ(qp.depth(), 1u);
  const auto payload = qp.poll();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(std::vector<std::uint8_t>(payload->begin(), payload->end()),
            (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(qp.empty());
  EXPECT_FALSE(qp.poll().has_value());
}

TEST(RdmaQueuePair, PostOrderIsVisibilityOrder) {
  // All writes on a QP share one latency, so the channel can never reorder —
  // the property the rain scheduler's sequencing relies on.
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, test_config());
  for (std::uint8_t i = 0; i < 16; ++i) {
    qp.post_write(std::vector<std::uint8_t>{i});
  }
  sim.run_for(sim::Duration::micros(1));
  ASSERT_EQ(qp.depth(), 16u);
  for (std::uint8_t i = 0; i < 16; ++i) {
    const auto payload = qp.poll();
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ((*payload)[0], i);
  }
}

TEST(RdmaQueuePair, StatsCountWritesDeliveriesAndBytes) {
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, test_config());
  qp.post_write(std::vector<std::uint8_t>{1, 2, 3});
  qp.post_write(std::vector<std::uint8_t>{4, 5});
  sim.run_for(sim::Duration::micros(1));
  EXPECT_EQ(qp.stats().writes, 2u);
  EXPECT_EQ(qp.stats().bytes, 5u);
  EXPECT_EQ(qp.stats().delivered, 0u);  // counts pops, not visibility
  (void)qp.poll();
  (void)qp.poll();
  EXPECT_EQ(qp.stats().delivered, 2u);
}

TEST(RdmaQueuePair, RecycledRingSurvivesSteadyStateTraffic) {
  // Thousands of post/poll cycles through the grow-only ring: every payload
  // round-trips intact even when slots (and their vectors) are reused.
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, test_config());
  std::uint32_t received = 0;
  qp.set_on_receive([&] {
    const auto payload = qp.poll();
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(payload->size(), 4u);
    std::uint32_t value = 0;
    for (std::size_t b = 0; b < 4; ++b) {
      value |= static_cast<std::uint32_t>((*payload)[b]) << (8 * b);
    }
    EXPECT_EQ(value, received);
    ++received;
  });
  constexpr std::uint32_t kRounds = 4096;
  for (std::uint32_t i = 0; i < kRounds; ++i) {
    sim.at(sim::TimePoint::origin() + sim::Duration::nanos(10 * i), [&qp, i] {
      qp.post_write(std::vector<std::uint8_t>{
          static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8),
          static_cast<std::uint8_t>(i >> 16),
          static_cast<std::uint8_t>(i >> 24)});
    });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(1));
  EXPECT_EQ(received, kRounds);
  EXPECT_EQ(qp.stats().writes, kRounds);
  EXPECT_EQ(qp.stats().delivered, kRounds);
}

}  // namespace
}  // namespace nicsched
