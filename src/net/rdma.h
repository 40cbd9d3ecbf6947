// One-sided RDMA queue pair: the `rain` family's NIC↔worker datapath.
//
// The offload prototype crosses the NIC↔host boundary with full UDP frames —
// construction, checksums, DMA, ring polling — totalling 2.56 µs one way
// (paper §3.3). RAIN (PAPERS.md) shows deployable RNIC hardware already
// supports a far cheaper primitive: the NIC posts a one-sided RDMA write
// straight into a run-queue slot in host memory, rings a doorbell, and the
// worker's poll loop sees the payload one PCIe traversal later. Completions
// flow back the same way as CQ entries.
//
// `RdmaQueuePair` models exactly that half-duplex primitive: a byte-payload
// channel whose delivery latency is `write_latency + cq_poll_interval`
// (posted-write traversal plus the poller's batching skew) and whose
// initiator-side occupancy cost (`wqe_post_cost + doorbell_cost`) is
// returned to the caller to account on whichever core posted the write. It
// is a `hw::MessageChannel` of byte vectors underneath whose ring slots are
// recycled: a post copies the payload into the next slot's vector, reusing
// its capacity, and a poll hands back a view of the slot, so steady-state
// traffic allocates nothing. Payloads are opaque bytes so the proto-layer
// codecs (kRdmaRunQueueEntry / kRdmaCqEntry) are exercised on the real
// dispatch path, not just in unit tests.
//
// Constants live in `core::ModelParams` (`rdma_*`) with the usual
// [paper]/[derived]/[assumed] annotations; DESIGN §15 carries the argument.
// The ideal NIC runs the same queue pair with CXL constants (zero poll skew
// and post cost; see core/nic_server.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "hw/channel.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace nicsched::net {

class RdmaQueuePair {
 public:
  struct Config {
    /// Posted-write traversal: post → payload bytes visible remotely.
    sim::Duration write_latency = sim::Duration::nanos(400);
    /// Poller batching skew added on top of the traversal.
    sim::Duration cq_poll_interval = sim::Duration::nanos(100);
    /// Initiator-side cost of building one work-queue entry.
    sim::Duration wqe_post_cost = sim::Duration::nanos(30);
    /// Initiator-side MMIO doorbell ring.
    sim::Duration doorbell_cost = sim::Duration::nanos(50);
  };

  struct Stats {
    std::uint64_t writes = 0;     // post_write calls (doorbells ring 1:1)
    std::uint64_t delivered = 0;  // payloads popped by the remote side
    std::uint64_t bytes = 0;      // payload bytes posted
  };

  RdmaQueuePair(sim::Simulator& sim, Config config)
      : config_(config),
        channel_(sim, config.write_latency + config.cq_poll_interval) {}

  RdmaQueuePair(const RdmaQueuePair&) = delete;
  RdmaQueuePair& operator=(const RdmaQueuePair&) = delete;

  /// Fires when a posted payload becomes pollable on the remote side.
  void set_on_receive(std::function<void()> on_receive) {
    channel_.set_on_message(std::move(on_receive));
  }

  /// Posts one one-sided write of a copy of `payload`. The payload becomes
  /// pollable after `write_latency + cq_poll_interval`; writes share one
  /// latency, so post order == visibility order (RDMA ordering within a
  /// QP). Returns the initiator-side occupancy cost (WQE build + doorbell)
  /// for the caller to account on the posting core.
  sim::Duration post_write(std::span<const std::uint8_t> payload) {
    ++stats_.writes;
    stats_.bytes += payload.size();
    channel_.send_in_place([payload](std::vector<std::uint8_t>& slot) {
      slot.assign(payload.begin(), payload.end());
    });
    return config_.wqe_post_cost + config_.doorbell_cost;
  }

  /// Pops the next visible payload, or nullopt when nothing is pollable yet.
  /// The view stays valid until the next post_write.
  std::optional<std::span<const std::uint8_t>> poll() {
    const std::vector<std::uint8_t>* payload = channel_.pop_in_place();
    if (payload == nullptr) return std::nullopt;
    ++stats_.delivered;
    return std::span<const std::uint8_t>(*payload);
  }

  bool empty() const { return channel_.empty(); }
  std::size_t depth() const { return channel_.depth(); }
  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

 private:
  Config config_;
  /// The staged/visible ring: a write is a message whose visibility latency
  /// is the traversal plus the poll skew.
  hw::MessageChannel<std::vector<std::uint8_t>> channel_;
  Stats stats_;
};

}  // namespace nicsched::net
