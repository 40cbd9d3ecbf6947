// Cancellable pending-event queue for the discrete-event simulator.
//
// Events fire in (time, insertion-sequence) order, so simultaneous events run
// in the order they were scheduled — a deterministic tie-break that keeps
// whole-simulation results reproducible for a given seed.
//
// Storage is a slab: callbacks live in a recycled pool of slots and the
// ordering structures hold lightweight `{when, seq, slot, generation}`
// entries. A slot's generation is bumped every time the slot is released
// (fired or cancelled), so a stale handle — or an ordering entry left behind
// by a cancellation — is detected by a generation mismatch instead of by
// `weak_ptr` bookkeeping. Scheduling therefore costs zero heap allocations
// once the structures have warmed up, and the callback itself is a `SmallFn`
// whose common capture (a component pointer plus an id) stays in inline
// storage.
//
// Events fire in place. The callbacks live in fixed 64-slot chunks that
// never move, so `take_due` pops the next entry with one settle, bumps the
// slot's generation (its handles go inert, exactly as after a move-out) and
// leaves the callback where it is; `fire` invokes it there and only then
// recycles the slot. A callback may therefore schedule any number of events
// (growing the slab by whole chunks) while it runs.
//
// Ordering is a hybrid of a timer wheel and a 4-ary implicit heap. The wheel
// covers the near horizon — 256 buckets of 2^20 ps (~1.05 µs) each, ~268 µs
// of span — so the dominant populations (packet hops at ns..µs reach and the
// re-armed timer-interrupt ticks) insert in O(1) instead of paying a heap
// sift. Everything outside the window (far-future timeouts, or times whose
// bucket the cursor already passed) goes straight to the heap. Before any
// pop the queue "settles": whole buckets cascade into the heap whenever the
// heap's minimum no longer precedes the next occupied bucket, which provably
// preserves the exact global (time, seq) pop order of a single heap — every
// entry still in the wheel is then strictly later than the heap's top. The
// 4-ary layout halves tree depth versus the binary `std::priority_queue` it
// replaced and keeps children in one cache line; pop order is identical
// because (time, seq) is a total order.
//
// Cancellation is O(1): the slot's callback is destroyed and the slot
// recycled immediately; the orphaned wheel/heap entry is dropped lazily when
// it cascades or reaches the heap top. Handles do not keep events alive —
// they observe them — and must not outlive the queue they came from.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.h"
#include "sim/time.h"

namespace nicsched::sim {

class EventQueue;

/// A handle to a scheduled event. Default-constructed handles refer to no
/// event; all operations on them are safe no-ops. A handle left over from an
/// event that fired (or was cancelled) goes inert even if its slot has since
/// been recycled for a new event: the generation check tells them apart.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call multiple times, after the
  /// event fired, or on an empty handle.
  inline void cancel();

  /// True if the event is still scheduled to fire (not cancelled, not fired).
  inline bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint64_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Pending events ordered by (fire time, insertion sequence).
class EventQueue {
 public:
  /// Timer-wheel geometry, exposed for the boundary tests.
  static constexpr int kBucketBits = 20;  // 2^20 ps ≈ 1.05 µs per bucket
  static constexpr std::size_t kBucketCount = 256;
  static constexpr Duration bucket_width() {
    return Duration::picos(std::int64_t{1} << kBucketBits);
  }
  /// Horizon covered by the wheel from the current cursor; schedules beyond
  /// it go to the heap.
  static constexpr Duration wheel_span() {
    return Duration::picos(static_cast<std::int64_t>(kBucketCount)
                           << kBucketBits);
  }

  /// Schedules `callback` to fire at absolute time `when`.
  EventHandle schedule(TimePoint when, EventFn callback);

  /// Reserves the next insertion sequence number without inserting anything.
  /// Pair with schedule_reserved to give an event the tie-break rank of the
  /// moment its cause happened even though the queue insert is deferred —
  /// Wire keeps one live delivery event per wire and re-arms it per frame,
  /// and the re-armed event must sort exactly where a per-frame schedule
  /// would have. Counts toward scheduled_count(), like the insert it stands
  /// for.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules with a sequence number from reserve_seq(). Pop order is
  /// (when, seq) regardless of insertion order, so this is behaviourally
  /// identical to having called schedule() at reservation time.
  EventHandle schedule_reserved(TimePoint when, std::uint64_t seq,
                                EventFn callback);

  /// Takes the earliest live event if it fires at or before `limit`,
  /// skipping cancelled events and leaving its callback in its slot: the
  /// slot's handles go inert at once, and `fire(slot)` must follow. Returns
  /// false (taking nothing) otherwise. The caller advances its clock to
  /// `when` before firing, so callbacks always observe the correct time.
  bool take_due(TimePoint limit, TimePoint& when, std::uint32_t& slot);

  /// Invokes a callback taken by take_due in its slot, then recycles the
  /// slot (also when the callback throws).
  void fire(std::uint32_t slot) {
    struct Recycle {
      EventQueue& queue;
      std::uint32_t slot;
      ~Recycle() {
        queue.callback(slot).reset();
        queue.free_.push_back(slot);
      }
    } recycle{*this, slot};
    callback(slot)();
  }

  /// Timestamp of the earliest live event, or TimePoint::max() if none.
  TimePoint next_event_time() const;

  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled) events. O(1).
  std::size_t live_count() const { return live_; }

  /// Total events ever scheduled; monotonically increasing.
  std::uint64_t scheduled_count() const { return next_seq_; }

  /// Slots currently in the slab (live + recycled). Exposed for tests.
  std::size_t slab_size() const { return generations_.size(); }

  /// Slots per slab chunk; chunks are allocated whole and never move.
  static constexpr std::size_t kChunkSlots = 64;

  /// Entries currently parked in wheel buckets (live + cancelled-but-lazy).
  /// Exposed so tests can see which structure a schedule landed in.
  std::size_t wheel_size() const { return wheel_size_; }
  /// Entries currently in the heap (live + cancelled-but-lazy).
  std::size_t heap_size() const { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint64_t generation;
  };

  static bool entry_before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  bool slot_live(std::uint32_t slot, std::uint64_t generation) const {
    return slot < generations_.size() && generations_[slot] == generation;
  }

  EventFn& callback(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  /// Destroys the slot's callback, bumps its generation (invalidating every
  /// outstanding handle and wheel/heap entry pointing at it), and recycles
  /// it.
  void release_slot(std::uint32_t slot) {
    callback(slot).reset();
    ++generations_[slot];
    free_.push_back(slot);
    --live_;
  }

  /// Pops the settled heap top (precondition: the heap is non-empty) and
  /// returns its slot with the generation already bumped.
  std::uint32_t pop_top(TimePoint& when) {
    const Entry entry = heap_.front();
    heap_pop_root();
    when = entry.when;
    ++generations_[entry.slot];
    --live_;
    return entry.slot;
  }

  void cancel_slot(std::uint32_t slot, std::uint64_t generation) {
    if (slot_live(slot, generation)) release_slot(slot);
  }

  void heap_push(Entry e) const;
  void heap_pop_root() const;

  /// Absolute index of the first occupied bucket at or after the cursor.
  /// Precondition: wheel_size_ > 0.
  std::int64_t next_occupied_bucket() const;

  /// Restores the pop invariant: dead heap tops are pruned and wheel buckets
  /// cascade into the heap until either the wheel is empty or the heap's
  /// (live) minimum strictly precedes every remaining wheel entry. Logically
  /// const: it only reshapes the ordering cache, never the set of live
  /// events, hence the mutable members. The inline fast path — a live heap
  /// top that precedes `wheel_min_start_`, a conservative lower bound on
  /// every wheel entry — is one compare; pops only take the slow path when a
  /// bucket must cascade or the top was cancelled.
  void settle() const {
    if (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (generations_[top.slot] == top.generation &&
          (wheel_size_ == 0 || top.when.to_picos() < wheel_min_start_)) {
        return;
      }
    } else if (wheel_size_ == 0) {
      return;
    }
    settle_slow();
  }
  void settle_slow() const;

  // Slot i's callback lives at chunks_[i / kChunkSlots][i % kChunkSlots];
  // its generation at generations_[i], whose size is the slot count.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<std::uint64_t> generations_;
  std::vector<std::uint32_t> free_;
  // 4-ary implicit min-heap on (when, seq).
  mutable std::vector<Entry> heap_;
  // Near-horizon buckets; bucket b (absolute) lives at slot b & (count-1),
  // valid only while b is within [cursor_, cursor_ + kBucketCount).
  mutable std::array<std::vector<Entry>, kBucketCount> wheel_;
  mutable std::array<std::uint64_t, kBucketCount / 64> occupied_{};
  mutable std::int64_t cursor_ = 0;
  mutable std::size_t wheel_size_ = 0;
  // Lower bound (picos) on every entry currently in the wheel; stale-low is
  // fine (the fast path is merely skipped), stale-high never happens: inserts
  // min() it down and settle_slow() recomputes it from the bitmap.
  mutable std::int64_t wheel_min_start_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_slot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slot_live(slot_, generation_);
}

}  // namespace nicsched::sim
