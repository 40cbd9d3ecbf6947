#include "sim/simulator.h"

namespace nicsched::sim {

std::uint64_t Simulator::run() {
  stopped_ = false;
  return fire_through(TimePoint::max());
}

std::uint64_t Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  const std::uint64_t fired = fire_through(deadline);
  if (now_ < deadline) now_ = deadline;
  return fired;
}

std::uint64_t Simulator::run_window(TimePoint end) {
  return fire_through(end - Duration::picos(1));
}

bool Simulator::step() {
  TimePoint when;
  std::uint32_t slot;
  if (!queue_.take_due(TimePoint::max(), when, slot)) return false;
  now_ = when;
  queue_.fire(slot);
  ++events_fired_;
  return true;
}

std::uint64_t Simulator::fire_through(TimePoint last) {
  std::uint64_t fired = 0;
  TimePoint when;
  std::uint32_t slot;
  while (!stopped_ && queue_.take_due(last, when, slot)) {
    now_ = when;
    queue_.fire(slot);
    ++fired;
    ++events_fired_;
  }
  return fired;
}

}  // namespace nicsched::sim
