// The common interface every modelled server system implements, plus shared
// helpers for converting between wire messages and internal descriptors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_surface.h"
#include "hw/cpu_core.h"
#include "hw/ddio.h"
#include "net/ethernet_switch.h"
#include "net/mac_address.h"
#include "net/packet.h"
#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/time.h"
#include "tenant/tenant.h"

#include <cstddef>

namespace nicsched::core {

/// Knobs for the reliable dispatcher↔worker protocol (DESIGN §9). Off by
/// default: with `enabled == false` a server's frame flow and event
/// sequence are bit-identical to the unreliable baseline.
struct ReliabilityParams {
  bool enabled = false;
  /// Initial retransmit timeout for an unacked assignment; doubled by
  /// `backoff` per retry. Must comfortably exceed the ~5 µs round trip.
  sim::Duration rto = sim::Duration::micros(50);
  double backoff = 2.0;
  /// Assignment send attempts before the request is abandoned.
  std::uint32_t retry_budget = 5;
  /// Consecutive retransmit timeouts on one worker before the liveness
  /// detector declares it dead and re-steers its in-flight requests.
  std::uint32_t miss_threshold = 3;
  /// After an assignment is acked, how long the dispatcher waits for the
  /// completion/preemption note before treating the worker as dead.
  sim::Duration completion_timeout = sim::Duration::micros(500);
};

/// Graceful-degradation accounting for reliable dispatch (DESIGN §9): how
/// the recovery machinery spent its effort. All zero when reliability is
/// off or no fault ever fired.
struct ReliabilityStats {
  std::uint64_t retransmits = 0;       // assignment frames resent
  std::uint64_t note_retransmits = 0;  // worker note frames resent
  std::uint64_t timeouts = 0;          // retransmit timers that fired
  std::uint64_t redispatched = 0;      // requests re-steered off a dead worker
  std::uint64_t abandoned = 0;         // retry budget exhausted, request dropped
  std::uint64_t duplicates = 0;        // duplicate frames suppressed
  std::uint64_t worker_deaths = 0;     // liveness detector declared a worker dead
  std::uint64_t revivals = 0;          // dead workers heard from again
  /// Dispatch-loss injections requested against a server whose dispatch
  /// path cannot drop frames (RAIN's one-sided RDMA writes). The schedule
  /// asked for a fault the fabric cannot express; counting the attempts
  /// keeps the ask visible instead of silently vanishing.
  std::uint64_t loss_injections_ignored = 0;
};

/// Aggregate counters every server reports; benches and tests read these to
/// check conservation and to explain throughput differences.
struct ServerStats {
  std::uint64_t requests_received = 0;   // parsed client requests
  std::uint64_t responses_sent = 0;
  std::uint64_t preemptions = 0;         // worker task interruptions
  std::uint64_t spurious_interrupts = 0; // fired with nothing running
  std::uint64_t steals = 0;              // work-stealing systems only
  std::uint64_t drops = 0;               // ring overflows etc.
  /// Requests dropped from a dispatch queue by a ToR kCancel frame (the
  /// losing leg of a hedged pair, DESIGN §16); zero without hedging.
  std::uint64_t cancelled = 0;
  std::size_t queue_max_depth = 0;       // centralized queue high-water mark
  /// Per-worker utilization over the run (busy time / wall time); the
  /// Figure 6 analysis ("workers spend 110 % more time waiting") reads this.
  std::vector<double> worker_utilization;
  /// Where request payloads were actually resident on first touch (§5.2).
  hw::DdioStats ddio;
  /// Recovery accounting; meaningful only for servers running reliable
  /// dispatch under a fault schedule.
  ReliabilityStats reliability;
  /// Overload-control accounting (DESIGN §11); all zero when the subsystem
  /// is disabled.
  overload::OverloadStats overload;
  /// Per-tenant dispatch/admission rows (DESIGN §13), slot-aligned with the
  /// configured TenantParams; empty when the tenant layer is off.
  std::vector<tenant::TenantStats> tenants;
};

/// An instantaneous, cheap-to-take snapshot of live scheduler state, polled
/// by the obs::MetricSampler on its sim-time cadence. Where ServerStats is a
/// run-end aggregate, this is the moment-to-moment view the paper argues the
/// NIC should be scheduling on.
struct ServerTelemetry {
  /// Requests waiting to be scheduled (centralized task queue(s), or the sum
  /// of per-core RX ring backlogs for run-to-completion systems).
  std::size_t queue_depth = 0;
  /// Requests the scheduler believes are in flight at workers (the
  /// outstanding-K occupancy for systems with a queuing optimization).
  std::uint64_t outstanding = 0;
  std::uint64_t preemptions = 0;  // cumulative
  std::uint64_t drops = 0;        // cumulative (malformed + ring overflow)
  std::uint64_t retransmits = 0;  // cumulative, assignment + note resends
  std::uint64_t abandoned = 0;    // cumulative, retry budget exhausted
  std::uint64_t rejected = 0;     // cumulative, admission-control rejections
  std::uint64_t shed = 0;         // cumulative, expired requests shed
  /// Cumulative per-worker busy time; the sampler differences consecutive
  /// snapshots into per-interval busy fractions.
  std::vector<sim::Duration> worker_busy;
  /// Current per-worker outstanding-K bound (the adaptive-K governor's
  /// output); empty for systems without a queuing optimization.
  std::vector<std::uint32_t> worker_capacity;
  /// Per-tenant dispatch-queue backlog (DESIGN §13), slot-aligned with the
  /// configured TenantParams; empty when the tenant layer is off (and for
  /// run-to-completion systems, which have no central per-tenant queues).
  std::vector<std::size_t> tenant_depths;
};

/// One worker core's counters, folded into a family's reports the same way
/// whichever transport the worker sits behind.
struct WorkerCounters {
  std::uint64_t responses_sent = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t spurious_interrupts = 0;
  hw::DdioStats ddio;
  sim::Duration busy;

  /// Adds the counters, plus a utilization row when `elapsed` is positive.
  void add_to(ServerStats& stats, sim::Duration elapsed) const {
    stats.responses_sent += responses_sent;
    stats.preemptions += preemptions;
    stats.spurious_interrupts += spurious_interrupts;
    stats.ddio.l1_touches += ddio.l1_touches;
    stats.ddio.llc_touches += ddio.llc_touches;
    stats.ddio.dram_touches += ddio.dram_touches;
    if (elapsed > sim::Duration::zero()) {
      stats.worker_utilization.push_back(busy / elapsed);
    }
  }
  /// Adds the preemption count and a cumulative busy-time row.
  void add_to(ServerTelemetry& telemetry) const {
    telemetry.preemptions += preemptions;
    telemetry.worker_busy.push_back(busy);
  }
};

class Server {
 public:
  virtual ~Server() = default;

  /// Where clients address their requests.
  virtual net::MacAddress ingress_mac() const = 0;
  virtual net::Ipv4Address ingress_ip() const = 0;
  virtual std::uint16_t port() const = 0;

  virtual std::string name() const = 0;

  /// Snapshot of counters; `elapsed` is the wall time utilizations are
  /// computed against.
  virtual ServerStats stats(sim::Duration elapsed) const = 0;

  /// Live scheduler state for metric sampling.
  virtual ServerTelemetry telemetry() const = 0;

  /// The server's fault-injection surface, or nullptr if it exposes none.
  /// run_experiment uses this to install a configured FaultSchedule.
  virtual fault::FaultSurface* fault_surface() { return nullptr; }
};

/// A server whose fault surface is its own ingress port plus its worker
/// cores: loss and degrade land on the switch port toward ingress_mac(),
/// stall/crash/resume on worker_core(). Dispatch loss is a no-op unless a
/// family's dispatch path crosses a lossy fabric and overrides it.
class FaultableServer : public Server, public fault::FaultSurface {
 public:
  /// The UDP port every server family takes client requests on.
  static constexpr std::uint16_t kRequestPort = 8080;

  std::uint16_t port() const override { return kRequestPort; }
  fault::FaultSurface* fault_surface() override { return this; }
  std::uint32_t fault_worker_count() const override { return worker_count_; }
  void inject_ingress_loss(double probability, std::uint64_t seed) override {
    network_.set_port_loss(ingress_mac(), probability, seed);
  }
  void inject_dispatch_loss(double /*probability*/,
                            std::uint64_t /*seed*/) override {}
  void inject_ingress_degrade(double factor) override {
    network_.set_port_degrade(ingress_mac(), factor);
  }
  void inject_worker_stall(std::uint32_t worker,
                           sim::Duration duration) override {
    worker_core(worker).stall_for(duration);
  }
  void inject_worker_crash(std::uint32_t worker) override {
    worker_core(worker).stall();
  }
  void inject_worker_resume(std::uint32_t worker) override {
    worker_core(worker).resume();
  }

 protected:
  FaultableServer(net::EthernetSwitch& network, std::size_t worker_count)
      : network_(network),
        worker_count_(static_cast<std::uint32_t>(worker_count)) {}

  /// The core a FaultSchedule's worker index names.
  virtual hw::CpuCore& worker_core(std::uint32_t worker) = 0;

  net::EthernetSwitch& network_;

 private:
  std::uint32_t worker_count_;
};

/// Builds the internal descriptor for a freshly received client request,
/// capturing the reply address from the request datagram's own headers.
inline proto::RequestDescriptor make_descriptor(
    const proto::RequestMessage& request, const net::UdpDatagramView& from) {
  proto::RequestDescriptor descriptor;
  descriptor.request_id = request.request_id;
  descriptor.client_id = request.client_id;
  descriptor.kind = request.kind;
  descriptor.remaining_ps = request.work_ps;
  descriptor.total_ps = request.work_ps;
  descriptor.preempt_count = 0;
  descriptor.client_mac = from.eth.src;
  descriptor.client_ip = from.ip.src;
  descriptor.client_port = from.udp.src_port;
  descriptor.deadline_ps = request.deadline_ps;
  descriptor.tenant = request.tenant;
  return descriptor;
}

/// The rejection notice for a refused request (overload admission control).
inline proto::RejectMessage make_reject(const proto::RequestMessage& request,
                                        std::uint32_t queue_depth) {
  proto::RejectMessage reject;
  reject.request_id = request.request_id;
  reject.client_id = request.client_id;
  reject.kind = request.kind;
  reject.queue_depth = queue_depth;
  return reject;
}

/// The reject frame answering `request` straight from the NIC interface at
/// (`mac`, `ip`, `port`), addressed back to the datagram it arrived in.
inline net::Packet make_reject_frame(net::MacAddress mac, net::Ipv4Address ip,
                                     std::uint16_t port,
                                     const net::UdpDatagramView& from,
                                     const proto::RequestMessage& request,
                                     std::size_t queue_depth) {
  net::DatagramAddress reply;
  reply.src_mac = mac;
  reply.dst_mac = from.eth.src;
  reply.src_ip = ip;
  reply.dst_ip = from.ip.src;
  reply.src_port = port;
  reply.dst_port = from.udp.src_port;
  auto& scratch = proto::serialization_scratch();
  make_reject(request, static_cast<std::uint32_t>(queue_depth))
      .serialize_into(scratch);
  return net::make_udp_datagram(reply, scratch);
}

/// The response for a completed descriptor.
inline proto::ResponseMessage make_response(
    const proto::RequestDescriptor& descriptor) {
  proto::ResponseMessage response;
  response.request_id = descriptor.request_id;
  response.client_id = descriptor.client_id;
  response.kind = descriptor.kind;
  response.preempt_count = descriptor.preempt_count;
  response.queue_depth = descriptor.queue_depth;
  return response;
}

}  // namespace nicsched::core
