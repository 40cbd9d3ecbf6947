// SliceTimer: the dispatcher's informed time-slice preemption, shared by
// the ideal NIC, rain and each shinjuku dispatcher group.
//
// One row per worker records what the dispatcher believes that worker is
// running: a token naming the run (the request id, or shinjuku's
// per-assignment epoch), whether it is still running, whether a preempt is
// already in flight, and since when. start() arms a check one slice later;
// the check re-arms while no work is waiting (the informed property the
// offload family's fire-always APIC timer lacks, §3.4.4) and otherwise fires
// the owner's preempt hook once. A check whose token is stale, whose run has
// ended, or whose preempt is already in flight does nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/simulator.h"

namespace nicsched::core {

class SliceTimer {
 public:
  /// What the owning dispatcher supplies.
  class Hooks {
   public:
    virtual ~Hooks() = default;
    /// True while requests wait in the dispatcher's queue.
    virtual bool work_waiting() const = 0;
    /// Sends the preempt interrupt to `worker` (the flag is already set).
    virtual void send_preempt(std::size_t worker) = 0;
  };

  /// `armed` = time-slice preemption enabled; when false start() only
  /// records the run (preempt() still works for an explicit caller).
  SliceTimer(sim::Simulator& sim, sim::Duration slice, bool armed,
             std::size_t workers, Hooks& hooks);

  // Pending checks hold `this`.
  SliceTimer(const SliceTimer&) = delete;
  SliceTimer& operator=(const SliceTimer&) = delete;

  /// `worker` began the run named `token`.
  void start(std::size_t worker, std::uint64_t token);
  /// `worker`'s current run ended (completed, preempted or re-steered).
  void stop(std::size_t worker);

  /// Marks a preempt in flight for `worker` and fires the hook.
  void preempt(std::size_t worker);

  bool running(std::size_t worker) const { return rows_[worker].running; }
  std::uint64_t token(std::size_t worker) const { return rows_[worker].token; }

  /// The running worker that started longest ago, at least one slice back,
  /// with no preempt in flight (lowest index on ties); nullopt if none, and
  /// always nullopt while time-slice preemption is off.
  std::optional<std::size_t> longest_overdue() const;

 private:
  struct Row {
    std::uint64_t token = 0;
    bool running = false;
    bool preempt_in_flight = false;
    sim::TimePoint since;
  };

  void arm(std::size_t worker, std::uint64_t token);

  sim::Simulator& sim_;
  sim::Duration slice_;
  bool armed_;
  Hooks& hooks_;
  std::vector<Row> rows_;
};

}  // namespace nicsched::core
