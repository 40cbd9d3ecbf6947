// Typed message channels modelling inter-core shared-memory communication.
//
// Vanilla Shinjuku moves requests between the networker, dispatcher, and
// workers through cache-line writes that the receiving core's poll loop
// observes after cache-coherence latency; the paper measures ~2 µs of added
// tail latency across its hops (§2.2). The §5.1 ideal SmartNIC would use a
// CXL-class coherent path with a few hundred nanoseconds one-way. Both are a
// `MessageChannel`: sender-visible cost is paid by the sender's core (as a
// `CpuCore::run` op), and the message becomes visible to the receiver after
// `visibility_latency`.
//
// Storage is a grow-only `sim::Ring`: messages are staged in the ring at send
// time and a plain counter flips them visible after the latency, so the
// delivery event captures only `this` (inline in SmallFn) and steady-state
// traffic never touches the heap — the deque-node churn and per-send closure
// spill this replaced are regression-tested by tests/sim_alloc_test.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace nicsched::hw {

template <typename T>
class MessageChannel {
 public:
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
  };

  MessageChannel(sim::Simulator& sim, sim::Duration visibility_latency)
      : sim_(sim), visibility_latency_(visibility_latency) {}

  MessageChannel(const MessageChannel&) = delete;
  MessageChannel& operator=(const MessageChannel&) = delete;

  /// Fires whenever a message lands in the queue (the receiving poll loop
  /// noticing the cache line flip).
  void set_on_message(std::function<void()> on_message) {
    on_message_ = std::move(on_message);
  }

  /// Publishes a message; it becomes poppable after the visibility latency.
  /// Messages share one latency, so ring order == visibility order.
  void send(T message) {
    send_in_place([&message](T& slot) { slot = std::move(message); });
  }

  /// Publishes a message that `fill(slot)` writes into the next ring slot,
  /// which still holds whatever its last occupant left there — so a
  /// container message can be overwritten in place, reusing its capacity.
  template <typename Fill>
  void send_in_place(Fill&& fill) {
    ++stats_.sent;
    fill(ring_.claim_back());
    sim_.after(visibility_latency_, [this]() {
      ++visible_;
      if (on_message_) on_message_();
    });
  }

  std::optional<T> pop() {
    if (T* message = pop_in_place()) return std::move(*message);
    return std::nullopt;
  }

  /// Pops the oldest visible message without moving it out of its slot, or
  /// returns null. The message stays valid until the next send.
  T* pop_in_place() {
    if (visible_ == 0) return nullptr;
    --visible_;
    ++stats_.received;
    T* message = &ring_.front();
    ring_.pop_front();
    return message;
  }

  bool empty() const { return visible_ == 0; }
  std::size_t depth() const { return visible_; }
  const Stats& stats() const { return stats_; }
  sim::Duration visibility_latency() const { return visibility_latency_; }

 private:
  sim::Simulator& sim_;
  sim::Duration visibility_latency_;
  /// Staged messages: in flight, then visible. Messages share one latency,
  /// so the visible ones are always a prefix.
  sim::Ring<T> ring_;
  std::size_t visible_ = 0;  // poppable prefix of the staged messages
  std::function<void()> on_message_;
  Stats stats_;
};

}  // namespace nicsched::hw
