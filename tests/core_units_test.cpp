// Unit tests for the scheduler building blocks: the centralized task queue,
// the core-status table, the poll-loop pumps, the reliable-dispatch seq
// bitmap and the ring the per-request queues share.
#include <gtest/gtest.h>

#include "core/core_status.h"
#include "core/model_params.h"
#include "core/packet_pump.h"
#include "core/seq_bitmap.h"
#include "core/task_queue.h"
#include "sim/id_set.h"
#include "sim/ring.h"

namespace nicsched::core {
namespace {

proto::RequestDescriptor descriptor(std::uint64_t id) {
  proto::RequestDescriptor d;
  d.request_id = id;
  return d;
}

TEST(TaskQueue, FifoAcrossNewAndPreempted) {
  TaskQueue queue;
  queue.push_new(descriptor(1));
  queue.push_new(descriptor(2));
  queue.push_preempted(descriptor(3));
  queue.push_new(descriptor(4));

  EXPECT_EQ(queue.pop()->request_id, 1u);
  EXPECT_EQ(queue.pop()->request_id, 2u);
  EXPECT_EQ(queue.pop()->request_id, 3u);
  EXPECT_EQ(queue.pop()->request_id, 4u);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(TaskQueue, StatsTrackDepthAndSources) {
  TaskQueue queue;
  queue.push_new(descriptor(1));
  queue.push_new(descriptor(2));
  queue.push_preempted(descriptor(3));
  queue.pop();
  queue.push_new(descriptor(4));

  EXPECT_EQ(queue.stats().enqueued_new, 3u);
  EXPECT_EQ(queue.stats().enqueued_preempted, 1u);
  EXPECT_EQ(queue.stats().dequeued, 1u);
  EXPECT_EQ(queue.stats().max_depth, 3u);
  EXPECT_EQ(queue.depth(), 3u);
}

TEST(CoreStatusTable, PicksLeastLoadedWithCapacity) {
  CoreStatusTable table(3, /*capacity=*/2);
  const sim::TimePoint t0 = sim::TimePoint::origin();
  EXPECT_EQ(table.pick_least_loaded(), 0u);  // ties break low

  table.note_sent(0, t0);
  EXPECT_EQ(table.pick_least_loaded(), 1u);
  table.note_sent(1, t0);
  table.note_sent(2, t0);
  table.note_sent(0, t0);  // worker 0 now full (2/2)
  EXPECT_EQ(table.pick_least_loaded(), 1u);
  table.note_sent(1, t0);
  table.note_sent(2, t0);
  EXPECT_FALSE(table.pick_least_loaded().has_value());  // all full

  table.note_retired(2, t0);
  EXPECT_EQ(table.pick_least_loaded(), 2u);
}

TEST(CoreStatusTable, OutstandingAccountingAndRunningSince) {
  CoreStatusTable table(1, 4);
  const sim::TimePoint t1 = sim::TimePoint::origin() + sim::Duration::micros(1);
  const sim::TimePoint t2 = sim::TimePoint::origin() + sim::Duration::micros(2);

  EXPECT_FALSE(table.entry(0).running_since.has_value());
  table.note_sent(0, t1);
  EXPECT_EQ(table.entry(0).outstanding, 1u);
  EXPECT_EQ(table.entry(0).running_since, t1);
  table.note_sent(0, t2);
  EXPECT_EQ(table.entry(0).outstanding, 2u);
  EXPECT_EQ(table.entry(0).running_since, t1);  // unchanged while busy

  table.note_retired(0, t2);
  EXPECT_EQ(table.entry(0).outstanding, 1u);
  EXPECT_EQ(table.entry(0).running_since, t2);
  table.note_retired(0, t2);
  EXPECT_EQ(table.entry(0).outstanding, 0u);
  EXPECT_FALSE(table.entry(0).running_since.has_value());
  EXPECT_EQ(table.total_outstanding(), 0u);

  // Underflow is clamped, not wrapped.
  table.note_retired(0, t2);
  EXPECT_EQ(table.entry(0).outstanding, 0u);
}

TEST(PacketPump, DrainsAtPerPacketCost) {
  sim::Simulator sim;
  hw::CpuCore core(sim, {"pump", sim::Frequency::gigahertz(2.3), 1.0});
  net::RxRing ring(16);
  std::vector<sim::TimePoint> handled;
  PacketPump pump(core, ring, sim::Duration::nanos(200),
                  [&](net::Packet) { handled.push_back(sim.now()); });

  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = net::MacAddress::from_index(2);
  ring.push(net::make_udp_datagram(address, {}));
  ring.push(net::make_udp_datagram(address, {}));
  sim.run();

  ASSERT_EQ(handled.size(), 2u);
  EXPECT_EQ(handled[0], sim::TimePoint::origin() + sim::Duration::nanos(200));
  EXPECT_EQ(handled[1], sim::TimePoint::origin() + sim::Duration::nanos(400));
  EXPECT_TRUE(ring.empty());
}

TEST(ChannelPump, DrainsMessagesInOrder) {
  sim::Simulator sim;
  hw::CpuCore core(sim, {"pump", sim::Frequency::gigahertz(2.3), 1.0});
  hw::MessageChannel<int> channel(sim, sim::Duration::nanos(150));
  std::vector<int> handled;
  ChannelPump<int> pump(core, channel, sim::Duration::nanos(100),
                        [&](int value) { handled.push_back(value); });
  channel.send(1);
  channel.send(2);
  channel.send(3);
  sim.run();
  EXPECT_EQ(handled, (std::vector<int>{1, 2, 3}));
  // Per-item cost bounds throughput: last handled at 150 ns + 3*100 ns.
  EXPECT_EQ(sim.now(),
            sim::TimePoint::origin() + sim::Duration::nanos(450));
}

TEST(SeqBitmap, AnswersLikeASetOfSequenceNumbers) {
  SeqBitmap seen;
  for (std::uint64_t seq = 1; seq <= 1'000; seq += 3) {
    EXPECT_TRUE(seen.insert(seq)) << seq;
  }
  for (std::uint64_t seq = 1; seq <= 1'000; ++seq) {
    EXPECT_EQ(seen.insert(seq), seq % 3 != 1) << seq;
  }
  // A number no counter reaches (a malformed frame's) must not size the
  // bitmap, and is still remembered.
  EXPECT_TRUE(seen.insert(0xDEAD'BEEF'CAFE'0001ULL));
  EXPECT_FALSE(seen.insert(0xDEAD'BEEF'CAFE'0001ULL));
}

// A number far above the ones accepted so far (a malformed frame's) is
// remembered without growing the bitmap, even below 2^28, and the dense
// numbers that follow still land in the bitmap.
TEST(SeqBitmap, FarAheadNumberDoesNotSizeTheBitmap) {
  SeqBitmap seen;
  for (std::uint64_t seq = 1; seq <= 1'000; ++seq) seen.insert(seq);
  const std::size_t bytes = seen.bitmap_bytes();
  const std::uint64_t far = std::uint64_t{1} << 27;
  EXPECT_TRUE(seen.insert(far));
  EXPECT_FALSE(seen.insert(far));
  EXPECT_EQ(seen.bitmap_bytes(), bytes);
  EXPECT_TRUE(seen.insert(1'001));
  EXPECT_FALSE(seen.insert(500));
  // A jump inside the window is an ordinary dense insert.
  const std::uint64_t near = 1'001 + SeqBitmap::kWindow;
  EXPECT_TRUE(seen.insert(near));
  EXPECT_FALSE(seen.insert(near));
  EXPECT_GE(seen.bitmap_bytes(), near / 8);
  EXPECT_LE(seen.bitmap_bytes(), 2 * (near / 8 + 8));
}

TEST(IdSet, AnswersLikeASetOfIds) {
  sim::IdSet ids;
  EXPECT_TRUE(ids.empty());
  for (std::uint64_t id : {40u, 10u, 30u, 20u}) EXPECT_TRUE(ids.insert(id));
  EXPECT_FALSE(ids.insert(30));
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_FALSE(ids.erase(25));
  EXPECT_TRUE(ids.erase(10));
  EXPECT_FALSE(ids.erase(10));
  EXPECT_TRUE(ids.erase(40));
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_TRUE(ids.insert(10));
  EXPECT_TRUE(ids.erase(20));
  EXPECT_TRUE(ids.erase(30));
  EXPECT_TRUE(ids.erase(10));
  EXPECT_TRUE(ids.empty());
}

TEST(Ring, GrowingWhileWrappedKeepsFifoOrder) {
  sim::Ring<int> ring;
  int next_in = 0;
  int next_out = 0;
  // Slide the window so the ring wraps, then outgrow it while wrapped.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 12; ++i) ring.push_back(next_in++);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(ring.take_front(), next_out++);
  }
  for (int i = 0; i < 40; ++i) ring.push_back(next_in++);
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_in - next_out));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_out + static_cast<int>(i));
  }
  while (!ring.empty()) EXPECT_EQ(ring.take_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(ModelParams, CompositePathsMatchPaperAggregates) {
  const ModelParams params = ModelParams::defaults();

  // The ARM→host one-way path (§3.3: 2.56 us): D2 frame construction on the
  // ARM core + ARM-side TX + two Stingray port hops + fabric forward +
  // host-side DMA. Serialization (~70 ns for a small frame) rides on top.
  const double one_way_us =
      (params.packet_build_cost * params.arm_time_scale + params.arm_nic_tx +
       params.stingray_port_latency * 2 + params.switch_forward_latency +
       params.host_nic_rx)
          .to_micros();
  EXPECT_NEAR(one_way_us, 2.56, 0.3);

  // The host dispatcher's per-request budget (§2.2: ~5 M req/s): enqueue +
  // assign + completion handling, inflated by SMT sharing.
  const double per_request_ns =
      (params.dispatch_enqueue_cost + params.dispatch_assign_cost +
       params.dispatch_note_cost + params.cacheline_ipc_cost)
          .to_nanos() *
      params.smt_penalty;
  const double dispatcher_mrps = 1e3 / per_request_ns;
  EXPECT_GT(dispatcher_mrps, 3.5);
  EXPECT_LT(dispatcher_mrps, 5.5);

  // Timer costs are the paper's cycle counts.
  EXPECT_EQ(params.timer_set_cycles, 40);
  EXPECT_EQ(params.timer_receive_cycles, 1272);
  EXPECT_EQ(params.timer_set_cycles_linux, 610);
  EXPECT_EQ(params.timer_receive_cycles_linux, 4193);
}

}  // namespace
}  // namespace nicsched::core
