// Poll-loop helpers: drain an RX ring or a message channel through a CPU
// core at a fixed per-item cost. Models a DPDK-style busy-poll thread with
// event-driven efficiency — the simulated core only "runs" when there is
// something to process, but items still serialize at the per-item cost, so
// per-core throughput ceilings emerge naturally.
#pragma once

#include <functional>
#include <utility>

#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/rx_ring.h"

namespace nicsched::core {

/// Drains `ring` through `core`, paying `per_packet_cost` per packet before
/// invoking the handler. Packets queue in the ring while the core is busy.
class PacketPump {
 public:
  PacketPump(hw::CpuCore& core, net::RxRing& ring,
             sim::Duration per_packet_cost,
             std::function<void(net::Packet)> handler)
      : core_(core),
        ring_(ring),
        cost_(per_packet_cost),
        handler_(std::move(handler)) {
    ring_.set_on_packet([this]() { kick(); });
  }

  PacketPump(const PacketPump&) = delete;
  PacketPump& operator=(const PacketPump&) = delete;

  void kick() {
    if (active_) return;
    active_ = true;
    step();
  }

 private:
  void step() {
    auto packet = ring_.pop();
    if (!packet) {
      active_ = false;
      return;
    }
    core_.run(cost_, [this, p = std::move(*packet)]() mutable {
      handler_(std::move(p));
      step();
    });
  }

  hw::CpuCore& core_;
  net::RxRing& ring_;
  sim::Duration cost_;
  std::function<void(net::Packet)> handler_;
  bool active_ = false;
};

/// Same idea for a typed message channel.
template <typename T>
class ChannelPump {
 public:
  ChannelPump(hw::CpuCore& core, hw::MessageChannel<T>& channel,
              sim::Duration per_item_cost, std::function<void(T)> handler)
      : core_(core),
        channel_(channel),
        cost_(per_item_cost),
        handler_(std::move(handler)) {
    channel_.set_on_message([this]() { kick(); });
  }

  ChannelPump(const ChannelPump&) = delete;
  ChannelPump& operator=(const ChannelPump&) = delete;

  void kick() {
    if (active_) return;
    active_ = true;
    step();
  }

 private:
  void step() {
    auto item = channel_.pop();
    if (!item) {
      active_ = false;
      return;
    }
    // One item is in flight at a time (active_ holds until it is handled),
    // so it parks in a member and the op captures only `this`: a
    // descriptor-sized item would spill out of SmallFn's inline buffer.
    current_ = std::move(*item);
    core_.run(cost_, [this]() {
      handler_(std::move(current_));
      step();
    });
  }

  hw::CpuCore& core_;
  hw::MessageChannel<T>& channel_;
  sim::Duration cost_;
  std::function<void(T)> handler_;
  bool active_ = false;
  T current_{};
};

}  // namespace nicsched::core
