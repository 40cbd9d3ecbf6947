// Ring<T>: a grow-only FIFO ring buffer for per-request queues.
//
// `std::deque` allocates and frees a block every few hundred elements as its
// window slides, so a queue that merely cycles through a steady population
// still reaches the global allocator at a steady rate. A Ring keeps one
// power-of-two array of slots: it doubles while its occupancy high-water mark
// rises and afterwards recycles the same storage forever.
//
// Popped slots are not destroyed, only left behind (moved-from by
// take_front, or as they were by pop_front) until the ring wraps onto them
// again. That is what lets claim_back() hand a slot back to a caller that
// overwrites it in place and so reuses its capacity: the RDMA queue pair
// stages byte payloads that way.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace nicsched::sim {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The i-th element from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask()]; }
  T& front() { return slots_[head_]; }

  void push_back(T value) { claim_back() = std::move(value); }

  /// Appends the slot after the back and returns it as its last occupant
  /// left it, for the caller to overwrite in place.
  T& claim_back() {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[(head_ + size_) & mask()];
    ++size_;
    return slot;
  }

  /// Removes the front element without destroying it; its slot keeps the
  /// object until the ring wraps onto it. Precondition: !empty().
  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// Moves the front element out and removes it. Precondition: !empty().
  T take_front() {
    T value = std::move(slots_[head_]);
    pop_front();
    return value;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }

  /// Doubles the slot array, unrolling the circular contents into FIFO
  /// order. Runs only while the high-water mark is still rising.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 16 : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nicsched::sim
