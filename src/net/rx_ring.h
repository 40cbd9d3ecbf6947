// A NIC receive ring: the bounded descriptor queue a polling core drains.
//
// Shinjuku-Offload's queuing optimization (§3.4.5) works precisely because
// each worker owns a ring the dispatcher can stash requests in; a worker that
// finishes or preempts a request "pulls out the next request that the
// dispatcher stashed in the worker's network interface RX queue and begins
// work immediately".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/packet.h"
#include "sim/ring.h"

namespace nicsched::net {

class RxRing {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t dropped = 0;  // ring overflow
  };

  explicit RxRing(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// Called at the instant a packet lands in the ring; a polling core uses
  /// this to wake immediately instead of busy-polling simulated time.
  void set_on_packet(std::function<void()> on_packet) {
    on_packet_ = std::move(on_packet);
  }

  /// Enqueues a packet; drops it (and counts the drop) if the ring is full.
  /// Returns true if enqueued.
  bool push(Packet packet) {
    if (ring_.size() >= capacity_) {
      ++stats_.dropped;
      return false;
    }
    ring_.push_back(std::move(packet));
    ++stats_.enqueued;
    if (on_packet_) on_packet_();
    return true;
  }

  /// Removes and returns the oldest packet, or nullopt if empty.
  std::optional<Packet> pop() {
    if (ring_.empty()) return std::nullopt;
    ++stats_.dequeued;
    return ring_.take_front();
  }

  std::size_t depth() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  sim::Ring<Packet> ring_;
  std::function<void()> on_packet_;
  Stats stats_;
};

}  // namespace nicsched::net
