#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace nicsched::sim {
namespace {

TimePoint at_us(std::int64_t us) {
  return TimePoint::origin() + Duration::micros(us);
}

void drain(EventQueue& queue) {
  TimePoint when;
  std::uint32_t slot = 0;
  while (queue.take_due(TimePoint::max(), when, slot)) queue.fire(slot);
}

TEST(EventQueue, FiresInTimestampOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(at_us(30), [&]() { order.push_back(3); });
  queue.schedule(at_us(10), [&]() { order.push_back(1); });
  queue.schedule(at_us(20), [&]() { order.push_back(2); });

  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(at_us(7), [&order, i]() { order.push_back(i); });
  }
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  EventHandle handle = queue.schedule(at_us(5), [&]() { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());

  TimePoint when;
  std::uint32_t slot = 0;
  EXPECT_FALSE(queue.take_due(TimePoint::max(), when, slot));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue queue;
  EventHandle handle = queue.schedule(at_us(1), []() {});
  TimePoint when;
  std::uint32_t slot = 0;
  ASSERT_TRUE(queue.take_due(TimePoint::max(), when, slot));
  queue.fire(slot);
  handle.cancel();  // no effect, no crash
  handle.cancel();
  EXPECT_FALSE(handle.pending());

  EventHandle empty;  // default-constructed
  empty.cancel();
  EXPECT_FALSE(empty.pending());
}

TEST(EventQueue, CancelledEventsAreSkippedNotReturned) {
  EventQueue queue;
  std::vector<int> order;
  auto h1 = queue.schedule(at_us(1), [&]() { order.push_back(1); });
  queue.schedule(at_us(2), [&]() { order.push_back(2); });
  auto h3 = queue.schedule(at_us(3), [&]() { order.push_back(3); });
  h1.cancel();
  h3.cancel();

  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, NextEventTimeSkipsCancelled) {
  EventQueue queue;
  auto h1 = queue.schedule(at_us(1), []() {});
  queue.schedule(at_us(9), []() {});
  EXPECT_EQ(queue.next_event_time(), at_us(1));
  h1.cancel();
  EXPECT_EQ(queue.next_event_time(), at_us(9));
}

TEST(EventQueue, EmptyAccountsForCancellation) {
  EventQueue queue;
  // empty()/next_event_time() are const now — exercise them through a
  // const reference, as monitoring code does.
  const EventQueue& view = queue;
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.next_event_time(), TimePoint::max());
  auto handle = queue.schedule(at_us(1), []() {});
  EXPECT_FALSE(view.empty());
  handle.cancel();
  EXPECT_TRUE(view.empty());
}

TEST(EventQueue, LiveCountExcludesCancelled) {
  EventQueue queue;
  auto h1 = queue.schedule(at_us(1), []() {});
  queue.schedule(at_us(2), []() {});
  queue.schedule(at_us(3), []() {});
  const EventQueue& view = queue;  // O(1) and const
  EXPECT_EQ(view.live_count(), 3u);
  h1.cancel();
  EXPECT_EQ(view.live_count(), 2u);
  EXPECT_EQ(view.scheduled_count(), 3u);
}

TEST(EventQueue, CallbackMayScheduleMoreEvents) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(at_us(1), [&]() {
    order.push_back(1);
    queue.schedule(at_us(2), [&]() { order.push_back(2); });
  });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Slab-specific behaviour: slot recycling, generation safety, churn.

// A handle whose event fired (or was cancelled) must stay inert even after
// its slot is recycled for a brand-new event: the generation check keeps the
// stale handle from cancelling the slot's new occupant.
TEST(EventQueueSlab, StaleHandleCannotTouchRecycledSlot) {
  EventQueue queue;
  bool first_fired = false;
  EventHandle stale = queue.schedule(at_us(1), [&]() { first_fired = true; });
  drain(queue);
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(stale.pending());

  // The queue is empty, so the next schedule recycles the same slot.
  bool second_fired = false;
  EventHandle fresh = queue.schedule(at_us(2), [&]() { second_fired = true; });
  EXPECT_EQ(queue.slab_size(), 1u);

  stale.cancel();  // must NOT cancel the recycled slot's new event
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  drain(queue);
  EXPECT_TRUE(second_fired);
}

TEST(EventQueueSlab, StaleHandleAfterCancelIsAlsoInert) {
  EventQueue queue;
  EventHandle stale = queue.schedule(at_us(1), []() {});
  stale.cancel();

  bool fired = false;
  queue.schedule(at_us(1), [&]() { fired = true; });
  stale.cancel();  // stale generation, same slot: no-op
  EXPECT_FALSE(stale.pending());
  drain(queue);
  EXPECT_TRUE(fired);
}

// The re-armed timer idiom: cancel + reschedule on every packet. The slab
// must recycle slots (bounded slab growth) and the orphaned heap entries
// must never fire or corrupt ordering.
TEST(EventQueueSlab, CancellationChurnRecyclesSlots) {
  EventQueue queue;
  std::uint64_t fired = 0;
  EventHandle timer;
  for (int i = 0; i < 10'000; ++i) {
    timer.cancel();
    timer = queue.schedule(at_us(100 + i), [&]() { ++fired; });
    EXPECT_EQ(queue.live_count(), 1u);
  }
  // One live event plus whatever transient slots the warmup used; the slab
  // must not have grown per-iteration.
  EXPECT_LE(queue.slab_size(), 4u);
  drain(queue);
  EXPECT_EQ(fired, 1u);  // only the last armed timer survives
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.live_count(), 0u);
}

// (time, seq) ordering holds across recycled slots: slot reuse must not
// perturb the deterministic tie-break.
TEST(EventQueueSlab, OrderingStableAcrossSlotReuse) {
  EventQueue queue;
  std::vector<int> order;
  // Round 1 populates and drains slots 0..2.
  for (int i = 0; i < 3; ++i) {
    queue.schedule(at_us(1), [&order, i]() { order.push_back(i); });
  }
  drain(queue);
  // Round 2 reuses those slots in some order; same timestamps, so the
  // insertion sequence alone must decide firing order.
  for (int i = 3; i < 9; ++i) {
    queue.schedule(at_us(2), [&order, i]() { order.push_back(i); });
  }
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueueSlab, MixedCancelAndFireKeepsCountsExact) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  handles.reserve(100);
  for (int i = 0; i < 100; ++i) {
    handles.push_back(queue.schedule(at_us(i), []() {}));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
  EXPECT_EQ(queue.live_count(), 50u);
  TimePoint when;
  std::uint32_t slot = 0;
  std::size_t popped = 0;
  while (queue.take_due(TimePoint::max(), when, slot)) {
    queue.fire(slot);
    ++popped;
  }
  EXPECT_EQ(popped, 50u);
  EXPECT_EQ(queue.live_count(), 0u);
  EXPECT_TRUE(queue.empty());
  for (auto& handle : handles) EXPECT_FALSE(handle.pending());
}

// ---------------------------------------------------------------------------
// Timer-wheel / 4-ary-heap hybrid: routing, cascade boundaries, wrap-around,
// lazy cancellation inside buckets, and a randomized model check against a
// reference sort. The hybrid is an ordering *cache* — none of these tests
// may observe anything but exact (time, seq) pop order.

TimePoint at_ps(std::int64_t ps) {
  return TimePoint::origin() + Duration::picos(ps);
}

// A schedule inside the wheel's horizon parks in a bucket; one past the
// horizon goes straight to the heap.
TEST(EventQueueWheel, RoutesByHorizon) {
  EventQueue queue;
  const Duration span = EventQueue::wheel_span();
  queue.schedule(TimePoint::origin() + span - Duration::picos(1), []() {});
  EXPECT_EQ(queue.wheel_size(), 1u);
  EXPECT_EQ(queue.heap_size(), 0u);

  queue.schedule(TimePoint::origin() + span, []() {});  // first step beyond
  EXPECT_EQ(queue.wheel_size(), 1u);
  EXPECT_EQ(queue.heap_size(), 1u);

  queue.schedule(TimePoint::origin() + Duration::millis(50), []() {});
  EXPECT_EQ(queue.heap_size(), 2u);
}

// Pop order is exact across the structures: heap-resident far events fire
// after wheel-resident near ones, and entries on either side of a bucket
// boundary (same bucket vs adjacent bucket) keep strict time order.
TEST(EventQueueWheel, BucketBoundariesPreserveOrder) {
  EventQueue queue;
  const std::int64_t width = EventQueue::bucket_width().to_picos();
  std::vector<int> order;
  // Last picosecond of bucket 0, first of bucket 1, plus a same-bucket pair
  // one tick apart and a far-future heap entry.
  queue.schedule(at_ps(width), [&]() { order.push_back(3); });
  queue.schedule(at_ps(width - 1), [&]() { order.push_back(2); });
  queue.schedule(at_ps(1), [&]() { order.push_back(0); });
  queue.schedule(at_ps(2), [&]() { order.push_back(1); });
  queue.schedule(TimePoint::origin() + EventQueue::wheel_span() * 2,
                 [&]() { order.push_back(4); });
  EXPECT_EQ(queue.heap_size(), 1u);
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Same-instant events split across a cascade (scheduled before and after an
// intervening pop) still fire in seq order.
TEST(EventQueueWheel, SameInstantAcrossCascadeKeepsSeqOrder) {
  EventQueue queue;
  std::vector<int> order;
  const TimePoint later = at_us(100);
  queue.schedule(later, [&]() { order.push_back(1); });
  queue.schedule(at_us(1), [&]() { order.push_back(0); });
  TimePoint when;
  std::uint32_t slot = 0;
  ASSERT_TRUE(queue.take_due(TimePoint::max(), when, slot));  // settles
  queue.fire(slot);
  queue.schedule(later, [&]() { order.push_back(2); });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// The wheel window slides with the cursor: after a pop advances it, a time
// beyond cursor + span must route to the heap (parking it in a bucket would
// fire it one revolution early), and a time *behind* the cursor — whose
// bucket already drained — must route to the heap as well, never resurrect
// the stale bucket.
TEST(EventQueueWheel, SlidWindowRoutesOutOfRangeTimesToHeap) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(at_us(10), [&]() { order.push_back(0); });
  TimePoint when;
  std::uint32_t slot = 0;
  ASSERT_TRUE(queue.take_due(TimePoint::max(), when, slot));
  queue.fire(slot);
  // Cursor sits just past 10us; the window now covers ~[10us, 280us).
  queue.schedule(at_us(280), [&]() { order.push_back(3); });  // beyond window
  queue.schedule(at_us(5), [&]() { order.push_back(1); });    // behind cursor
  EXPECT_EQ(queue.heap_size(), 2u)
      << "out-of-window times must route to the heap, not alias a bucket";
  queue.schedule(at_us(20), [&]() { order.push_back(2); });  // in window
  EXPECT_EQ(queue.wheel_size(), 1u);
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Cancelling a wheel-resident event is O(1) on the slot; the bucket entry is
// dropped lazily and never fires, and the queue's live view is immediate.
TEST(EventQueueWheel, CancellationInsideBucketIsLazyButExact) {
  EventQueue queue;
  bool fired = false;
  EventHandle doomed = queue.schedule(at_us(3), [&]() { fired = true; });
  queue.schedule(at_us(5), []() {});
  ASSERT_EQ(queue.wheel_size(), 2u);
  doomed.cancel();
  EXPECT_EQ(queue.wheel_size(), 2u);  // entry parked until its bucket drains
  EXPECT_EQ(queue.live_count(), 1u);
  EXPECT_EQ(queue.next_event_time(), at_us(5));
  drain(queue);
  EXPECT_FALSE(fired);
  EXPECT_EQ(queue.wheel_size(), 0u);
}

// Reserved sequence numbers give an insert the tie-break rank of the moment
// its cause happened, regardless of actual insertion order — the contract
// Wire's burst batching leans on.
TEST(EventQueueWheel, ReservedSeqOutranksLaterSchedulesAtSameInstant) {
  EventQueue queue;
  std::vector<int> order;
  const std::uint64_t early = queue.reserve_seq();
  queue.schedule(at_us(4), [&]() { order.push_back(1); });
  queue.schedule_reserved(at_us(4), early, [&]() { order.push_back(0); });
  EXPECT_EQ(queue.scheduled_count(), 2u);
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// Randomized model check: a few thousand schedules spanning wheel and heap
// horizons, with a slice cancelled, must pop in exactly the reference
// (time, seq) order. Deterministic LCG, so a failure is replayable.
TEST(EventQueueWheel, RandomizedPopOrderMatchesReferenceSort) {
  EventQueue queue;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_random = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  const std::int64_t horizon = EventQueue::wheel_span().to_picos() * 3;
  std::vector<std::pair<std::int64_t, std::uint64_t>> reference;  // (ps, seq)
  std::vector<std::uint64_t> popped;
  std::vector<EventHandle> handles;
  for (std::uint64_t seq = 0; seq < 5000; ++seq) {
    const std::int64_t ps =
        static_cast<std::int64_t>(next_random() % horizon);
    handles.push_back(
        queue.schedule(at_ps(ps), [&popped, seq]() { popped.push_back(seq); }));
    if (next_random() % 10 == 0) {
      handles.back().cancel();
    } else {
      reference.emplace_back(ps, seq);
    }
  }
  std::sort(reference.begin(), reference.end());
  drain(queue);
  ASSERT_EQ(popped.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(popped[i], reference[i].second) << "divergence at pop " << i;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.wheel_size(), 0u);
  EXPECT_EQ(queue.heap_size(), 0u);
}

// Interleaved pop/schedule with a moving cursor: events scheduled relative
// to "now" as the clock advances (the simulation's actual usage pattern)
// never fire out of order even as buckets recycle across revolutions.
TEST(EventQueueWheel, InterleavedScheduleAndPopAcrossRevolutions) {
  EventQueue queue;
  std::uint64_t state = 42;
  auto next_random = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  };
  TimePoint now = TimePoint::origin();
  std::vector<TimePoint> fired;
  const std::int64_t reach = EventQueue::wheel_span().to_picos();  // 1 lap
  for (int i = 0; i < 64; ++i) {
    queue.schedule(now + Duration::picos(static_cast<std::int64_t>(
                             next_random() % reach)),
                   [&fired, &now]() { fired.push_back(now); });
  }
  TimePoint when;
  std::uint32_t slot = 0;
  while (queue.take_due(TimePoint::max(), when, slot)) {
    ASSERT_GE(when, now);
    now = when;
    queue.fire(slot);
    // Keep ~4 revolutions of churn flowing through the recycled buckets.
    if (fired.size() < 512) {
      queue.schedule(now + Duration::picos(static_cast<std::int64_t>(
                               next_random() % reach) + 1),
                     [&fired, &now]() { fired.push_back(now); });
    }
  }
  EXPECT_GE(fired.size(), 512u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

// Move-only captures now flow straight into event closures — the property
// the packet path relies on instead of shared_ptr wrappers.
TEST(EventQueueSlab, HoldsMoveOnlyCaptures) {
  EventQueue queue;
  auto payload = std::make_unique<int>(41);
  int result = 0;
  queue.schedule(at_us(1), [&result, p = std::move(payload)]() {
    result = *p + 1;
  });
  drain(queue);
  EXPECT_EQ(result, 42);
}

// The Simulator fires each callback where it sits in the slab. A callback
// that schedules more events than one slab chunk holds grows the slab while
// it runs; its own captures must stay intact and every new event must fire
// in order.
TEST(SimulatorInPlaceFiring, CallbackMayGrowTheSlabPastAChunk) {
  Simulator sim;
  constexpr int kScheduled = 3 * 64 + 5;
  std::vector<int> order;
  std::array<std::uint64_t, 4> seen{};
  const std::array<std::uint64_t, 4> marks = {11, 22, 33, 44};
  sim.at(at_us(1), [&sim, &order, &seen, marks]() {
    for (int i = kScheduled; i > 0; --i) {
      sim.at(at_us(2) + Duration::nanos(i), [&order, i]() {
        order.push_back(i);
      });
    }
    seen = marks;  // read after the slab grew under this callback
  });
  sim.run();
  EXPECT_EQ(seen, marks);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kScheduled));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_GE(sim.queue().slab_size(), static_cast<std::size_t>(kScheduled));
}

// A firing event is no longer pending: its own handle reads false inside
// the callback, and cancelling it there is a harmless no-op.
TEST(SimulatorInPlaceFiring, OwnHandleIsNotPendingWhileFiring) {
  Simulator sim;
  EventHandle self;
  bool pending_inside = true;
  int later_fired = 0;
  self = sim.at(at_us(1), [&]() {
    pending_inside = self.pending();
    self.cancel();
    sim.after(Duration::micros(1), [&]() { ++later_fired; });
  });
  EXPECT_TRUE(self.pending());
  sim.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(self.pending());
  EXPECT_EQ(later_fired, 1);
  EXPECT_EQ(sim.events_fired(), 2u);
}

// A callback may cancel an event due at the same instant; the cancelled
// event never fires, and the rest of the instant still runs in order.
TEST(SimulatorInPlaceFiring, CallbackCancelsSameInstantEvent) {
  Simulator sim;
  std::vector<int> order;
  EventHandle victim;
  sim.at(at_us(5), [&]() {
    order.push_back(1);
    victim.cancel();
  });
  victim = sim.at(at_us(5), [&]() { order.push_back(2); });
  sim.at(at_us(5), [&]() { order.push_back(3); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_FALSE(victim.pending());
  EXPECT_TRUE(sim.queue().empty());
}

}  // namespace
}  // namespace nicsched::sim
