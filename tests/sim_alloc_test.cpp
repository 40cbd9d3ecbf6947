// Zero-allocation guarantees for the simulator fast path.
//
// This binary replaces global operator new/delete with counting shims, warms
// a scenario up, then asserts that a steady-state window performs ZERO heap
// allocations:
//
//  * the event hot loop with the common capture (component pointer + id),
//  * the cancellation-churn loop (guard timer re-armed per event),
//  * the packet path (make_udp_datagram + parse_udp_datagram round trip).
//
// This is the enforcement teeth behind the slab event queue, the SmallFn
// inline buffer, and the packet-buffer pool: a regression that reintroduces
// a per-event or per-frame allocation fails here, not in a profiler.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/core_status.h"
#include "core/reliable_dispatch.h"
#include "hw/channel.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
      received += descriptor->request_id != 0 ? 1 : 1;
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

}  // namespace
}  // namespace nicsched
