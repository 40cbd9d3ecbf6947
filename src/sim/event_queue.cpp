#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace nicsched::sim {

namespace {
constexpr std::size_t kBucketMask = EventQueue::kBucketCount - 1;
constexpr std::size_t kWordCount = EventQueue::kBucketCount / 64;
}  // namespace

EventHandle EventQueue::schedule(TimePoint when, EventFn callback) {
  return schedule_reserved(when, next_seq_++, std::move(callback));
}

EventHandle EventQueue::schedule_reserved(TimePoint when, std::uint64_t seq,
                                          EventFn callback) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(generations_.size());
    if (slot % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSlots));
    }
    generations_.push_back(0);
  }
  this->callback(slot) = std::move(callback);
  const std::uint64_t generation = generations_[slot];
  const Entry entry{when, seq, slot, generation};
  // Arithmetic shift keeps pathological negative times heap-bound.
  const std::int64_t bucket = when.to_picos() >> kBucketBits;
  if (bucket >= cursor_ &&
      bucket < cursor_ + static_cast<std::int64_t>(kBucketCount)) {
    const std::size_t ws = static_cast<std::size_t>(bucket) & kBucketMask;
    wheel_[ws].push_back(entry);
    occupied_[ws >> 6] |= std::uint64_t{1} << (ws & 63);
    const std::int64_t bucket_start = bucket << kBucketBits;
    if (wheel_size_ == 0 || bucket_start < wheel_min_start_) {
      wheel_min_start_ = bucket_start;
    }
    ++wheel_size_;
  } else {
    heap_push(entry);
  }
  ++live_;
  return EventHandle{this, slot, generation};
}

bool EventQueue::take_due(TimePoint limit, TimePoint& when,
                          std::uint32_t& slot) {
  settle();
  if (heap_.empty() || heap_.front().when > limit) return false;
  slot = pop_top(when);
  return true;
}

TimePoint EventQueue::next_event_time() const {
  settle();
  if (heap_.empty()) return TimePoint::max();
  return heap_.front().when;
}

void EventQueue::heap_push(Entry e) const {
  heap_.push_back(e);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!entry_before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::heap_pop_root() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n <= 1) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (entry_before(heap_[child], heap_[best])) best = child;
    }
    if (!entry_before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

std::int64_t EventQueue::next_occupied_bucket() const {
  const std::size_t start = static_cast<std::size_t>(cursor_) & kBucketMask;
  const std::size_t word = start >> 6;
  const std::size_t bit = start & 63;
  // First occupied slot at circular distance d from `start` corresponds to
  // absolute bucket cursor_ + d: buckets are only ever populated inside the
  // window [cursor_, cursor_ + kBucketCount).
  const std::uint64_t masked = occupied_[word] & (~std::uint64_t{0} << bit);
  if (masked != 0) {
    const std::size_t slot =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(masked));
    return cursor_ + static_cast<std::int64_t>(slot - start);
  }
  for (std::size_t k = 1; k <= kWordCount; ++k) {
    const std::size_t wi = (word + k) & (kWordCount - 1);
    if (occupied_[wi] == 0) continue;
    const std::size_t slot =
        (wi << 6) + static_cast<std::size_t>(std::countr_zero(occupied_[wi]));
    const std::size_t distance = (slot + kBucketCount - start) & kBucketMask;
    return cursor_ + static_cast<std::int64_t>(distance);
  }
  return cursor_;  // unreachable while wheel_size_ > 0
}

void EventQueue::settle_slow() const {
  for (;;) {
    while (!heap_.empty() &&
           !slot_live(heap_.front().slot, heap_.front().generation)) {
      heap_pop_root();
    }
    if (wheel_size_ == 0) return;
    const std::int64_t bucket = next_occupied_bucket();
    const std::int64_t bucket_start = bucket << kBucketBits;
    wheel_min_start_ = bucket_start;
    if (!heap_.empty() && heap_.front().when.to_picos() < bucket_start) return;
    // Cascade the whole bucket: every entry in it is >= bucket_start, and
    // the heap minimum (if any) is >= bucket_start too, so merging preserves
    // the global (time, seq) order. Cancelled entries are dropped here.
    const std::size_t ws = static_cast<std::size_t>(bucket) & kBucketMask;
    std::vector<Entry>& entries = wheel_[ws];
    for (const Entry& entry : entries) {
      if (slot_live(entry.slot, entry.generation)) heap_push(entry);
    }
    wheel_size_ -= entries.size();
    entries.clear();  // keeps capacity: steady-state cascades allocate nothing
    occupied_[ws >> 6] &= ~(std::uint64_t{1} << (ws & 63));
    cursor_ = bucket + 1;
  }
}

}  // namespace nicsched::sim
