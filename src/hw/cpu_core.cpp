#include "hw/cpu_core.h"

#include <utility>

namespace nicsched::hw {

void CpuCore::run(sim::Duration cost, sim::EventFn done) {
  if (cost.is_negative()) {
    throw std::logic_error("CpuCore::run: negative cost");
  }
  queue_.push_back(Op{cost, std::move(done)});
  if (!busy_) start_next_op();
}

void CpuCore::start_next_op() {
  if (queue_.empty() || busy_ || stalled_) return;
  busy_ = true;
  current_ = queue_.take_front();
  const sim::Duration scaled = scale(current_.cost);
  // Completion is scheduled even for zero-cost ops so that `done` never runs
  // re-entrantly inside the caller of run().
  sim_.after(scaled, [this]() { finish_current_op(); });
  stats_.busy += scaled;
}

void CpuCore::finish_current_op() {
  busy_ = false;
  ++stats_.ops;
  // Move the completion out first: it may call run() and restart the op
  // chain, which would overwrite current_.
  sim::EventFn done = std::move(current_.done);
  if (done) done();
  start_next_op();
}

void CpuCore::run_preemptible(sim::Duration work, sim::EventFn on_complete) {
  if (busy_ || preemptible_active_ || !queue_.empty()) {
    throw std::logic_error("CpuCore::run_preemptible on core '" +
                           config_.name + "': core not idle");
  }
  if (work.is_negative()) {
    throw std::logic_error("CpuCore::run_preemptible: negative work");
  }
  busy_ = true;
  preemptible_active_ = true;
  preemptible_work_ = work;
  preemptible_started_ = sim_.now();
  preemptible_complete_ = std::move(on_complete);
  if (stalled_) {
    // The caller handed us a task mid-stall (e.g. a serialized op's boundary
    // completion chained into execution); it starts once the stall ends.
    preemptible_paused_ = true;
    return;
  }
  preemptible_done_ =
      sim_.after(scale(work), [this]() { finish_preemptible(); });
}

void CpuCore::finish_preemptible() {
  busy_ = false;
  preemptible_active_ = false;
  stats_.busy += scale(preemptible_work_);
  ++stats_.tasks_completed;
  sim::EventFn complete = std::move(preemptible_complete_);
  if (complete) complete();
  start_next_op();
}

void CpuCore::pause_preemptible() {
  preemptible_done_.cancel();
  const sim::Duration executed_scaled = sim_.now() - preemptible_started_;
  stats_.busy += executed_scaled;

  const double scale_factor = config_.time_scale;
  const sim::Duration executed =
      scale_factor == 1.0 ? executed_scaled
                          : executed_scaled * (1.0 / scale_factor);
  sim::Duration remaining = preemptible_work_ - executed;
  if (remaining.is_negative()) remaining = sim::Duration::zero();
  preemptible_work_ = remaining;
  preemptible_paused_ = true;
}

void CpuCore::interrupt(sim::Duration handler_entry_cost,
                        sim::SmallFn<void(sim::Duration)> on_interrupted) {
  if (!preemptible_active_) {
    throw std::logic_error("CpuCore::interrupt on core '" + config_.name +
                           "': no preemptible task running");
  }
  sim::Duration remaining;
  if (preemptible_paused_) {
    // Paused by a stall: no burst in flight, the residue is already exact.
    remaining = preemptible_work_;
    preemptible_paused_ = false;
  } else {
    preemptible_done_.cancel();
    const sim::Duration executed_scaled = sim_.now() - preemptible_started_;
    stats_.busy += executed_scaled;

    // Un-scale to get the work actually retired, then the remainder.
    const double scale_factor = config_.time_scale;
    const sim::Duration executed =
        scale_factor == 1.0 ? executed_scaled
                            : executed_scaled * (1.0 / scale_factor);
    remaining = preemptible_work_ - executed;
    if (remaining.is_negative()) remaining = sim::Duration::zero();
  }
  ++stats_.tasks_interrupted;

  preemptible_active_ = false;
  busy_ = false;
  preemptible_complete_ = nullptr;

  // The handler entry path (interrupt delivery, trap, state save) occupies
  // the core as an ordinary serialized operation. Under a stall it queues
  // and runs once the stall ends. Only one interrupt can be in flight
  // (interrupt() throws until the task state is re-armed), so the
  // continuation parks in members and the op captures only `this`.
  interrupt_cb_ = std::move(on_interrupted);
  interrupt_remaining_ = remaining;
  run(handler_entry_cost, [this]() {
    auto cb = std::move(interrupt_cb_);
    cb(interrupt_remaining_);
  });
}

void CpuCore::enter_stall() {
  stalled_ = true;
  if (preemptible_active_ && !preemptible_paused_) pause_preemptible();
}

void CpuCore::stall_for(sim::Duration d) {
  if (d.is_negative() || d.is_zero()) return;
  const sim::TimePoint end = sim_.now() + d;
  enter_stall();
  if (stall_open_ended_) return;  // a crash dominates any timed window
  if (stall_end_.pending() && !(stall_until_ < end)) return;
  stall_end_.cancel();
  stall_until_ = end;
  stall_end_ = sim_.at(end, [this]() { resume(); });
}

void CpuCore::stall() {
  enter_stall();
  stall_open_ended_ = true;
  stall_end_.cancel();
}

void CpuCore::resume() {
  if (!stalled_) return;
  stalled_ = false;
  stall_open_ended_ = false;
  stall_end_.cancel();
  if (preemptible_paused_) {
    preemptible_paused_ = false;
    preemptible_started_ = sim_.now();
    preemptible_done_ = sim_.after(scale(preemptible_work_),
                                   [this]() { finish_preemptible(); });
  } else if (!busy_) {
    start_next_op();
  }
}

}  // namespace nicsched::hw
