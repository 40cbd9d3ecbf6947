// Zero-allocation guarantees for the simulator fast path.
//
// This binary replaces global operator new/delete with counting shims, warms
// a scenario up, then asserts that a steady-state window performs ZERO heap
// allocations:
//
//  * the event hot loop with the common capture (component pointer + id),
//  * the cancellation-churn loop (guard timer re-armed per event),
//  * the packet path (make_udp_datagram + parse_udp_datagram round trip),
//  * the per-request queues and channels (CpuCore ops, RX ring, RDMA queue
//    pair, message channels and their pumps, reliable-dispatch tables).
//
// End to end, every family and both benchmark racks must stay below 0.01
// allocations per request in a steady-state window.
//
// This is the enforcement teeth behind the slab event queue, the SmallFn
// inline buffer, the packet-buffer pool, sim::Ring and the arenas: a
// regression that reintroduces a per-event or per-request allocation fails
// here, not in a profiler.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "core/core_status.h"
#include "core/packet_pump.h"
#include "core/reliable_dispatch.h"
#include "core/testbed.h"
#include "fault/chaos_schedule.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/rdma.h"
#include "net/rx_ring.h"
#include "proto/messages.h"
#include "rack/tor_scheduler.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"
#include "tenant/tenant.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

// The shims stay out of line, so the compiler never pairs a `malloc` it can
// see with a `free` (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace nicsched {
namespace {

// The common simulation event: a component re-arming itself with a capture
// of one pointer and one id. Must never leave SmallFn's inline buffer.
struct TickingComponent {
  sim::Simulator& sim;
  std::uint64_t id;
  std::uint64_t fires = 0;

  void arm() {
    sim.after(sim::Duration::nanos(100), [this, my_id = id]() {
      fires += (my_id != 0 ? 1 : 1);
      arm();
    });
  }
};

TEST(SimAlloc, HotEventLoopIsAllocationFree) {
  sim::Simulator sim;
  TickingComponent component{sim, 42};
  component.arm();
  // Warmup must cover one full timer-wheel revolution (~268us): each of the
  // 256 bucket vectors grows to its stationary population once, and every
  // revolution after that recycles the same storage.
  sim.run_for(sim::Duration::micros(300));

  const std::uint64_t before = allocation_count();
  sim.run_for(sim::Duration::millis(1));  // 10'000 events
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state events must not touch the heap";
  EXPECT_GE(component.fires, 10'000u);
}

// Timer churn: every event cancels a pending guard and re-arms it — the
// pattern preemption timers follow. Cancellation recycles the slot in O(1)
// and must not allocate either.
struct ChurningComponent {
  sim::Simulator& sim;
  sim::EventHandle guard = {};
  std::uint64_t fires = 0;
  std::uint64_t guard_fires = 0;

  void arm() {
    guard.cancel();
    // 5us timeout: short enough that the dead-entry population in the heap
    // (cancelled guards waiting to be pruned at their timestamp) plateaus
    // within the warmup window below.
    guard = sim.after(sim::Duration::micros(5),
                      [this]() { ++guard_fires; });
    sim.after(sim::Duration::nanos(200), [this]() {
      ++fires;
      arm();
    });
  }
};

TEST(SimAlloc, CancellationChurnIsAllocationFree) {
  sim::Simulator sim;
  ChurningComponent component{sim};
  component.arm();
  // One wheel revolution (see HotEventLoop) plus the dead-guard plateau.
  sim.run_for(sim::Duration::micros(300));

  const std::uint64_t before = allocation_count();
  sim.run_for(sim::Duration::millis(1));
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(component.fires, 4'000u);
  EXPECT_EQ(component.guard_fires, 0u);  // always re-armed in time
}

TEST(SimAlloc, PacketBuildParseRoundTripIsAllocationFree) {
  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = net::MacAddress::from_index(2);
  address.src_ip = net::Ipv4Address(10, 0, 0, 1);
  address.dst_ip = net::Ipv4Address(10, 0, 0, 2);
  address.src_port = 40'000;
  address.dst_port = 9'000;
  std::array<std::uint8_t, 64> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }

  // Warm the pool and the thread-local scratch segment.
  for (int i = 0; i < 16; ++i) {
    net::Packet packet = net::make_udp_datagram(address, payload);
    ASSERT_TRUE(net::parse_udp_datagram(packet).has_value());
  }

  const std::uint64_t before = allocation_count();
  std::uint64_t parsed = 0;
  for (int i = 0; i < 10'000; ++i) {
    net::Packet packet = net::make_udp_datagram(address, payload);
    if (net::parse_udp_datagram(packet)) ++parsed;
  }
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state frames must recycle pooled buffers";
  EXPECT_EQ(parsed, 10'000u);
}

// The dispatch hop: descriptor-sized messages through a MessageChannel. The
// grow-only ring must absorb steady-state send/pop churn without touching the
// heap — the deque-node churn *and* the per-send closure spill (a captured
// descriptor exceeds SmallFn's inline buffer) both used to allocate here.
TEST(SimAlloc, MessageChannelSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  hw::MessageChannel<proto::RequestDescriptor> channel(
      sim, sim::Duration::nanos(500));
  std::uint64_t received = 0;
  channel.set_on_message([&channel, &received]() {
    while (auto descriptor = channel.pop()) {
      received += descriptor->request_id != 0 ? 1u : 1u;
    }
  });

  std::uint64_t next_id = 1;
  std::function<void()> produce = [&]() {
    proto::RequestDescriptor descriptor;
    descriptor.request_id = next_id++;
    descriptor.remaining_ps = 5'000'000;
    channel.send(descriptor);
    sim.after(sim::Duration::nanos(200), [&produce]() { produce(); });
  };
  produce();
  // Warm the ring past its high-water mark and the timer wheel through one
  // full revolution.
  sim.run_for(sim::Duration::micros(300));

  const std::uint64_t before = allocation_count();
  sim.run_for(sim::Duration::millis(1));
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state channel traffic must recycle the ring";
  EXPECT_GE(received, 4'000u);
}

// The TX hot path: serialize_into the thread-local scratch, wrap in a frame,
// parse it back. Covers every message family the servers emit per request.
TEST(SimAlloc, ScratchSerializationRoundTripIsAllocationFree) {
  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(3);
  address.dst_mac = net::MacAddress::from_index(4);
  address.src_ip = net::Ipv4Address(10, 0, 0, 3);
  address.dst_ip = net::Ipv4Address(10, 0, 0, 4);
  address.src_port = 41'000;
  address.dst_port = 8'080;

  proto::RequestMessage request;
  request.request_id = 7;
  request.work_ps = 5'000'000;
  request.deadline_ps = 123'456'789;  // forces the larger v2 layout
  request.padding = 24;
  proto::RequestDescriptor descriptor;
  descriptor.request_id = 7;
  descriptor.remaining_ps = 5'000'000;
  proto::CompletionMessage completion;
  completion.request_id = 7;
  completion.has_sojourn = true;
  completion.sojourn_ps = 1'000'000;
  proto::ResponseMessage response;
  response.request_id = 7;
  proto::RejectMessage reject;
  reject.request_id = 7;
  reject.queue_depth = 512;

  auto& scratch = proto::serialization_scratch();
  auto transmit_all = [&]() {
    std::uint64_t ok = 0;
    request.serialize_into(scratch);
    ok += net::parse_udp_datagram(net::make_udp_datagram(address, scratch))
              .has_value();
    descriptor.serialize_into(proto::MessageType::kAssignment, scratch);
    ok += net::parse_udp_datagram(net::make_udp_datagram(address, scratch))
              .has_value();
    completion.serialize_into(scratch);
    ok += net::parse_udp_datagram(net::make_udp_datagram(address, scratch))
              .has_value();
    response.serialize_into(scratch);
    ok += net::parse_udp_datagram(net::make_udp_datagram(address, scratch))
              .has_value();
    reject.serialize_into(scratch);
    ok += net::parse_udp_datagram(net::make_udp_datagram(address, scratch))
              .has_value();
    return ok;
  };

  for (int i = 0; i < 16; ++i) transmit_all();  // warm scratch + packet pool

  const std::uint64_t before = allocation_count();
  std::uint64_t parsed = 0;
  for (int i = 0; i < 10'000; ++i) parsed += transmit_all();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "scratch serialization must reuse the thread-local buffer";
  EXPECT_EQ(parsed, 50'000u);
}

// The real reliable-dispatch table (shared by the offload and rain
// families) through its steady state: every microsecond a fresh request is
// tracked, the previous one is acked (its RTO swapped for the completion
// watchdog) and the one a window back is retired. The first wave warms the
// table's arena freelists and the event queue; after that the window must
// never reach the global allocator.
TEST(SimAlloc, ArenaBackedReliableTablesAreAllocationFree) {
  sim::Simulator sim;
  core::CoreStatusTable status(1, 1u << 20);
  core::ReliabilityParams params;
  params.enabled = true;
  core::ReliableDispatch dispatch(
      sim, params, status, nullptr, "alloc",
      {[](std::size_t, const proto::RequestDescriptor&, std::uint64_t) {},
       [](proto::RequestDescriptor) {}, []() {}});

  constexpr std::uint64_t kWindow = 64;  // retire after 64 us < 500 us watchdog
  std::uint64_t next_id = 1;
  auto tick = [&]() {
    const std::uint64_t id = next_id++;
    proto::RequestDescriptor descriptor;
    descriptor.request_id = id;
    dispatch.track(descriptor, 0, id);  // seq == id
    if (id > 1) dispatch.ack(0, id - 1);
    if (id > kWindow) dispatch.retire(0, id - kWindow, /*completed=*/true);
    sim.run_for(sim::Duration::micros(1));
  };
  // Warm past the 500 us watchdog horizon so cancelled timers recycle too.
  for (int i = 0; i < 2'000; ++i) tick();

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10'000; ++i) tick();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u)
      << "steady-state reliable bookkeeping must recycle arena freelists";
  EXPECT_EQ(dispatch.stats().retransmits, 0u);
  EXPECT_EQ(dispatch.stats().duplicates, 0u);
}

// A core's op queue past one std::deque block (a block holds five ops):
// bursts of 64 queued ops recycle one ring of slots.
TEST(SimAlloc, CpuCoreOpQueueBurstsAreAllocationFree) {
  sim::Simulator sim;
  hw::CpuCore core(sim, hw::CpuCore::Config{});
  std::uint64_t done = 0;
  auto burst = [&]() {
    for (int i = 0; i < 64; ++i) {
      core.run(sim::Duration::nanos(10), [&done]() { ++done; });
    }
    sim.run();
  };
  // A burst spans 640 ns, so 500 of them cover one timer-wheel revolution
  // (see HotEventLoop) while the ring and the event slab reach 64.
  for (int i = 0; i < 500; ++i) burst();

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 500; ++i) burst();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "queued ops must recycle the ring";
  EXPECT_EQ(done, 1'000u * 64u);
}

// An RX ring filled and drained in bursts: a sliding std::deque would free
// and re-allocate its blocks on every pass.
TEST(SimAlloc, RxRingPushPopIsAllocationFree) {
  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = net::MacAddress::from_index(2);
  address.src_ip = net::Ipv4Address(10, 0, 0, 1);
  address.dst_ip = net::Ipv4Address(10, 0, 0, 2);
  std::array<std::uint8_t, 64> payload{};
  net::RxRing ring(1024);
  std::uint64_t popped = 0;
  auto burst = [&]() {
    for (int i = 0; i < 100; ++i) {
      ring.push(net::make_udp_datagram(address, payload));
    }
    while (auto packet = ring.pop()) popped += packet->size() != 0 ? 1u : 0u;
  };
  for (int i = 0; i < 4; ++i) burst();  // ring and packet pool warm

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100; ++i) burst();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "the RX ring must recycle its slots";
  EXPECT_EQ(popped, 104u * 100u);
}

// The rain datapath: a post copies the payload into a recycled ring slot
// (no by-value vector per post) and a poll views the slot in place.
TEST(SimAlloc, RdmaPostPollRoundTripIsAllocationFree) {
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, net::RdmaQueuePair::Config{});
  std::uint64_t polled_bytes = 0;
  qp.set_on_receive([&qp, &polled_bytes]() {
    while (auto payload = qp.poll()) polled_bytes += payload->size();
  });
  proto::RdmaRunQueueEntry entry;
  entry.descriptor.remaining_ps = 5'000'000;
  auto& scratch = proto::serialization_scratch();
  auto post = [&]() {
    ++entry.seq;
    entry.serialize_into(scratch);
    qp.post_write(scratch);
    sim.run_for(sim::Duration::nanos(200));
  };
  // One wheel revolution (see HotEventLoop) warms the ring and the queue.
  for (int i = 0; i < 2'000; ++i) post();

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10'000; ++i) post();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "RDMA posts must reuse ring payloads";
  sim.run();
  EXPECT_EQ(qp.stats().delivered, 12'000u);
  EXPECT_EQ(polled_bytes, qp.stats().bytes);
}

// A poll-loop core draining descriptor-sized items: the in-flight item parks
// in the pump, so the per-item op captures only the pump and stays inline.
TEST(SimAlloc, ChannelPumpOfDescriptorsIsAllocationFree) {
  sim::Simulator sim;
  hw::CpuCore core(sim, hw::CpuCore::Config{});
  hw::MessageChannel<proto::RequestDescriptor> channel(
      sim, sim::Duration::nanos(150));
  std::uint64_t handled = 0;
  core::ChannelPump<proto::RequestDescriptor> pump(
      core, channel, sim::Duration::nanos(100),
      [&handled](proto::RequestDescriptor descriptor) {
        handled += descriptor.request_id != 0 ? 1u : 0u;
      });
  std::uint64_t next_id = 1;
  auto send = [&]() {
    proto::RequestDescriptor descriptor;
    descriptor.request_id = next_id++;
    channel.send(descriptor);
    sim.run_for(sim::Duration::nanos(200));
  };
  for (int i = 0; i < 2'000; ++i) send();  // one wheel revolution

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10'000; ++i) send();
  const std::uint64_t after = allocation_count();

  EXPECT_EQ(after - before, 0u) << "pumped items must not spill SmallFn";
  EXPECT_GE(handled, 11'900u);
}

// Direct checks that the hot capture shapes stay inline in SmallFn.
TEST(SimAlloc, CommonCapturesStayInline) {
  int dummy = 0;
  std::uint64_t id = 7;
  sim::EventFn pointer_and_id = [ptr = &dummy, id]() { (void)ptr, (void)id; };
  EXPECT_TRUE(pointer_and_id.is_inline());

  net::Packet packet;
  sim::EventFn pointer_and_packet = [ptr = &dummy,
                                     p = std::move(packet)]() { (void)ptr; };
  EXPECT_TRUE(pointer_and_packet.is_inline())
      << "a moved-in Packet must fit the inline buffer";
}

// ---- end to end --------------------------------------------------------

/// A 4-host power-of-two rack, as in perfbench.
core::RackConfig rack_of_four(bool failover_and_hedging) {
  rack::TorParams tor;
  tor.policy = rack::TorPolicy::kPowerOfTwo;
  tor.failover = failover_and_hedging;
  tor.hedge = failover_and_hedging;
  core::RackConfig rack;
  rack.tor = tor;
  return rack;
}

/// A whole run_experiment configuration shaped like perfbench's workloads:
/// bimodal 5/100 us service, 2 ms warm-up and drain, and every field that
/// would otherwise be read from the environment pinned.
core::ExperimentConfig steady_state_config(const std::string& name,
                                           sim::Duration measure) {
  const auto us = [](std::int64_t n) { return sim::Duration::micros(n); };
  core::ExperimentConfig config;
  if (name == "rain_rack") {
    config = core::ExperimentConfig::rain()
                 .workers(4)
                 .outstanding(1)
                 .slice(us(10))
                 .load(2.0e6)
                 .with_rack(rack_of_four(false));
  } else if (name == "offload_chaos_rack") {
    overload::OverloadParams over;
    over.enabled = true;
    over.deadline = us(400);
    over.retry_budget = 2;
    over.retry_timeout = us(150);
    fault::ChaosOptions chaos;
    chaos.seed = 42 * 131 + 7;
    config = core::ExperimentConfig::offload()
                 .workers(2)
                 .outstanding(2)
                 .load(300e3)
                 .clients(4, 16)
                 .with_rack(rack_of_four(true))
                 .with_chaos(chaos)
                 .with_overload(over)
                 .reliable()
                 .with_tenants(
                     {tenant::make_tenant(1).named("lc").weighted(4).slo_class(
                          tenant::SloClass::kLatencyCritical),
                      tenant::make_tenant(2).named("be").slo_class(
                          tenant::SloClass::kBestEffort)});
  } else {
    config = core::ExperimentConfig::of(core::from_string(name))
                 .workers(4)
                 .slice(us(10))
                 .load(300e3);
  }
  config.bimodal(us(5), us(100), 0.005).measure_for(measure).with_seed(42);
  config.warmup = sim::Duration::millis(2);
  config.drain = sim::Duration::millis(2);
  config.capture = obs::CaptureOptions::disabled_options();
  config.fault = fault::FaultSchedule{};
  if (!config.overload) config.overload = overload::OverloadParams{};
  if (config.tenants.empty()) config.tenants = {tenant::make_tenant(0)};
  if (!config.reliable_dispatch) config.reliable_dispatch = false;
  config.feedback_staleness = sim::Duration::zero();
  config.shards = 1;
  return config;
}

class SteadyStateAllocations : public ::testing::TestWithParam<std::string> {};

// Every family on one host, the 4-host p2c rain rack and the reliable,
// hedged, tenanted offload chaos rack, end to end. The steady-state window is
// what a run adds when its measurement window grows from 10 to 40 ms (20 to
// 100 ms for the chaos rack, whose storms need longer to settle): the
// allocations it adds per request it adds must stay below 0.01. A first run
// warms the process-wide pools (packet buffers, serialization scratch) that
// outlive a run.
TEST_P(SteadyStateAllocations, PerRequestPathIsAllocationFree) {
  const std::string& name = GetParam();
  const bool chaos = name == "offload_chaos_rack";
  const sim::Duration short_window = sim::Duration::millis(chaos ? 20 : 10);
  const sim::Duration long_window = sim::Duration::millis(chaos ? 100 : 40);
  const auto run = [&name](sim::Duration window) {
    const std::uint64_t before = allocation_count();
    const core::ExperimentResult result =
        core::run_experiment(steady_state_config(name, window));
    return std::pair{static_cast<double>(allocation_count() - before),
                     static_cast<double>(result.clients.sent)};
  };
  run(short_window);
  const auto [short_allocations, short_sent] = run(short_window);
  const auto [long_allocations, long_sent] = run(long_window);
  ASSERT_GT(long_sent, short_sent + 1'000.0);
  const double per_request =
      (long_allocations - short_allocations) / (long_sent - short_sent);
  EXPECT_LE(per_request, 0.01)
      << (long_allocations - short_allocations) << " allocations for "
      << (long_sent - short_sent) << " requests";
}

INSTANTIATE_TEST_SUITE_P(
    Families, SteadyStateAllocations,
    ::testing::Values("shinjuku", "shinjuku-offload", "rss-rtc",
                      "flow-director", "work-stealing", "elastic-rss",
                      "ideal-nic", "rpcvalet", "rain", "rain_rack",
                      "offload_chaos_rack"),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string label = param_info.param;
      for (char& c : label) {
        if (c == '-') c = '_';
      }
      return label;
    });

}  // namespace
}  // namespace nicsched
