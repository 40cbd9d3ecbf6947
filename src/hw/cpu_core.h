// Simulated CPU core.
//
// A core executes two kinds of work:
//
//  * Serialized operations (`run`): fixed-cost, non-preemptible steps such as
//    parsing a packet, a dispatch decision, or constructing an outgoing
//    frame. Operations queue FIFO; per-core throughput limits (e.g. the
//    Shinjuku dispatcher's ~5 M req/s, §2.2) emerge from operation cost.
//
//  * A preemptible task (`run_preemptible`): application request execution
//    on a worker. It can be interrupted mid-flight; the interrupt reports
//    how much work remains so the scheduler can re-queue the request
//    (§3.4.3-3.4.4).
//
// `time_scale` models slower silicon: the Stingray's ARM A72 cores take
// longer per operation than the host Xeon cores ("it runs on the slower ARM
// CPU", §4.1). Costs are specified in reference (host-x86) time and scaled.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace nicsched::hw {

class CpuCore {
 public:
  struct Config {
    std::string name = "core";
    sim::Frequency frequency = sim::Frequency::gigahertz(2.3);
    /// Multiplier applied to every cost; >1 means a slower core.
    double time_scale = 1.0;
  };

  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t tasks_completed = 0;
    std::uint64_t tasks_interrupted = 0;
    sim::Duration busy;  // total time the core spent executing anything
  };

  CpuCore(sim::Simulator& sim, Config config)
      : sim_(sim), config_(std::move(config)) {}

  CpuCore(const CpuCore&) = delete;
  CpuCore& operator=(const CpuCore&) = delete;

  const std::string& name() const { return config_.name; }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  /// Cost of `n` cycles on this core, including the time scale.
  sim::Duration cycles(std::int64_t n) const {
    return scale(config_.frequency.cycles(n));
  }

  /// Reference duration scaled to this core's speed.
  sim::Duration scale(sim::Duration d) const {
    return config_.time_scale == 1.0 ? d : d * config_.time_scale;
  }

  /// True if nothing is executing and no operation is queued.
  bool idle() const { return !busy_ && queue_.empty(); }

  /// Number of queued (not yet started) operations.
  std::size_t queued_ops() const { return queue_.size(); }

  /// Enqueues a serialized operation costing `cost` (reference time);
  /// `done` runs on completion. Zero-cost operations are legal and complete
  /// via a deferred event to keep callback ordering sane.
  void run(sim::Duration cost, sim::EventFn done);

  /// Starts the preemptible task. The core must be fully idle. `on_complete`
  /// runs when `work` (reference time) has been executed uninterrupted.
  void run_preemptible(sim::Duration work, sim::EventFn on_complete);

  /// True if a preemptible task is currently executing.
  bool preemptible_running() const { return preemptible_active_; }

  /// Interrupts the running preemptible task. The task stops accruing work
  /// immediately; the core then spends `handler_entry_cost` (reference time,
  /// e.g. the 1272-cycle posted-interrupt receive path) before
  /// `on_interrupted(remaining_work)` runs. Throws if no task is running.
  void interrupt(sim::Duration handler_entry_cost,
                 sim::SmallFn<void(sim::Duration)> on_interrupted);

  /// Stalls the core until `d` from now (fault injection: a GC pause, an
  /// SMI, a hypervisor steal window). An overlapping call extends the window
  /// to whichever end is later. While stalled the core retires no new work:
  /// the op already in flight finishes at its boundary, queued ops wait, and
  /// a running preemptible task pauses (progress so far is kept) and resumes
  /// when the stall ends.
  void stall_for(sim::Duration d);

  /// Open-ended stall — a crashed core. Only resume() ends it.
  void stall();

  /// Ends any stall immediately and restarts deferred work.
  void resume();

  /// True while a stall window (timed or open-ended) is in effect.
  bool stalled() const { return stalled_; }

 private:
  struct Op {
    sim::Duration cost;  // reference time, unscaled
    sim::EventFn done;
  };

  void start_next_op();
  void finish_current_op();
  void finish_preemptible();
  void enter_stall();
  void pause_preemptible();

  sim::Simulator& sim_;
  Config config_;
  Stats stats_;

  bool busy_ = false;
  sim::Ring<Op> queue_;
  // The single in-flight op lives here (busy_ guards exclusivity) so its
  // completion event captures only `this` and stays in SmallFn's inline
  // buffer — no per-op allocation.
  Op current_;

  bool preemptible_active_ = false;
  bool preemptible_paused_ = false;      // paused by a stall window
  sim::Duration preemptible_work_;       // still to execute, reference time
  sim::TimePoint preemptible_started_;   // when the current burst began
  sim::EventHandle preemptible_done_;
  sim::EventFn preemptible_complete_;

  // The single pending interrupt continuation (interrupt() throws if one is
  // already in flight, so a member suffices and keeps the handler-entry
  // closure down to `this`).
  sim::SmallFn<void(sim::Duration)> interrupt_cb_;
  sim::Duration interrupt_remaining_;

  bool stalled_ = false;
  bool stall_open_ended_ = false;        // crash: no scheduled end
  sim::TimePoint stall_until_;
  sim::EventHandle stall_end_;
};

}  // namespace nicsched::hw
