// Cross-component interrupt delivery.
//
// Vanilla Shinjuku's dispatcher preempts workers by sending low-overhead
// posted interrupts between host cores; the §5.1 "ideal SmartNIC" would send
// interrupts to host cores directly over a fast path. Both are instances of
// an `InterruptLine`: a sender-side cost, a delivery latency, and a
// receiver-side handler-entry cost.
#pragma once

#include <cstdint>
#include <functional>

#include "hw/cpu_core.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace nicsched::hw {

class InterruptLine {
 public:
  struct Config {
    /// Latency from the sender issuing the interrupt to the target core
    /// seeing it (e.g. inter-core posted-interrupt delivery).
    sim::Duration delivery_latency = sim::Duration::nanos(300);
    /// Target-core handler entry cost in cycles (1272 with Dune posted
    /// interrupts, §3.4.4).
    std::int64_t receive_cycles = 1272;
  };

  InterruptLine(sim::Simulator& sim, CpuCore& target, Config config)
      : sim_(sim), target_(target), config_(config) {}

  /// Sends an interrupt. If the target is running a preemptible task when
  /// the interrupt lands, the task is interrupted and `on_delivered`
  /// receives its remaining work. If the target is not running one — the
  /// task finished during delivery, the race §3.4.4 warns about — the
  /// interrupt is spurious and `on_spurious` runs instead.
  void send(std::function<void(sim::Duration)> on_delivered,
            std::function<void()> on_spurious = nullptr);

  std::uint64_t delivered_count() const { return delivered_; }
  std::uint64_t spurious_count() const { return spurious_; }

 private:
  struct InFlight {
    std::function<void(sim::Duration)> on_delivered;
    std::function<void()> on_spurious;
  };

  void land();

  sim::Simulator& sim_;
  CpuCore& target_;
  Config config_;
  /// Sent, not yet landed. Every send shares one latency, so they land in
  /// FIFO order and the delivery event captures only `this`.
  sim::Ring<InFlight> in_flight_;
  std::uint64_t delivered_ = 0;
  std::uint64_t spurious_ = 0;
};

}  // namespace nicsched::hw
