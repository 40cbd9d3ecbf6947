#include "core/slice_timer.h"

namespace nicsched::core {

SliceTimer::SliceTimer(sim::Simulator& sim, sim::Duration slice, bool armed,
                       std::size_t workers, Hooks& hooks)
    : sim_(sim), slice_(slice), armed_(armed), hooks_(hooks), rows_(workers) {}

void SliceTimer::start(std::size_t worker, std::uint64_t token) {
  Row& row = rows_[worker];
  row.token = token;
  row.since = sim_.now();
  row.running = true;
  row.preempt_in_flight = false;
  if (armed_) arm(worker, token);
}

void SliceTimer::stop(std::size_t worker) {
  rows_[worker].running = false;
  rows_[worker].preempt_in_flight = false;
}

void SliceTimer::preempt(std::size_t worker) {
  rows_[worker].preempt_in_flight = true;
  hooks_.send_preempt(worker);
}

std::optional<std::size_t> SliceTimer::longest_overdue() const {
  std::optional<std::size_t> victim;
  if (!armed_) return victim;  // time-slice preemption is off
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    if (!row.running || row.preempt_in_flight) continue;
    if (sim_.now() - row.since < slice_) continue;
    if (!victim || row.since < rows_[*victim].since) victim = i;
  }
  return victim;
}

void SliceTimer::arm(std::size_t worker, std::uint64_t token) {
  sim_.after(slice_, [this, worker, token]() {
    const Row& row = rows_[worker];
    if (!row.running || row.token != token || row.preempt_in_flight) return;
    if (!hooks_.work_waiting()) {
      // Informed: nothing waiting, keep running and re-check a slice later.
      arm(worker, token);
      return;
    }
    preempt(worker);
  });
}

}  // namespace nicsched::core
