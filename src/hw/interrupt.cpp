#include "hw/interrupt.h"

#include <utility>

namespace nicsched::hw {

void InterruptLine::send(std::function<void(sim::Duration)> on_delivered,
                         std::function<void()> on_spurious) {
  in_flight_.push_back({std::move(on_delivered), std::move(on_spurious)});
  sim_.after(config_.delivery_latency, [this]() { land(); });
}

void InterruptLine::land() {
  InFlight interrupt = in_flight_.take_front();
  if (!target_.preemptible_running()) {
    ++spurious_;
    if (interrupt.on_spurious) interrupt.on_spurious();
    return;
  }
  ++delivered_;
  target_.interrupt(target_.cycles(config_.receive_cycles),
                    std::move(interrupt.on_delivered));
}

}  // namespace nicsched::hw
