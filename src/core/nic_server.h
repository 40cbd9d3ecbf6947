// The ASIC-dispatched families: the §5.1 "ideal SmartNIC" and `rain`
// (DESIGN §15). Both put a line-rate scheduling pipeline on the NIC — a
// per-decision cost of nanoseconds, not an ARM core — that keeps a central
// queue and a near-fresh core-status table, assigns requests to polling host
// workers, and preempts them with direct, informed NIC→core interrupts. They
// differ only in the host↔NIC path, which is cost data chosen by kind:
//
//   * CXL (kIdealNic, and the kRpcValet preset) — a CXL-class coherent
//     path: assignments are written straight into host memory where workers
//     see them a few hundred nanoseconds later, and status flows back the
//     same way. Posting costs the ASIC nothing.
//   * RDMA (kRain, PAPERS.md) — deployable RNIC hardware: one-sided RDMA
//     writes into per-worker run-queues, status as CQ entries on a shared
//     completion queue; every post costs WQE build plus doorbell
//     (`ModelParams::rdma_*`), and visibility adds the poller's skew.
//
// Either way assignments travel as kRdmaRunQueueEntry frames and status as
// kRdmaCqEntry frames over `net::RdmaQueuePair`, so the proto codecs run on
// the real dispatch path. With DDIO into L1 (§5.2) the worker's payload touch
// is nearly free while K keeps the backlog small.
//
// The RDMA path adds two control loops (both off by default): reliable
// dispatch degraded onto doorbell/CQ semantics (DESIGN §9 — every run-queue
// entry carries a sequence number, the worker's kStarted CQE is the dispatch
// ack, an RTO re-posts the write and the worker dedupes by seq), and
// adaptive K fed by the run-queue sojourn on kCompleted CQEs. The coherent
// path keeps the status table fresh, so both stay off there.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/host_worker.h"
#include "core/host_spec.h"
#include "core/packet_pump.h"
#include "core/reliable_dispatch.h"
#include "core/server.h"
#include "core/slice_timer.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "net/rdma.h"
#include "overload/overload.h"
#include "sim/simulator.h"
#include "tenant/tenant.h"

namespace nicsched::core {

class NicSchedServer final : public FaultableServer,
                             private SliceTimer::Hooks {
 public:
  /// kRain takes the RDMA path; kIdealNic and kRpcValet take the CXL path
  /// (see nic_server.cpp for what each kind overrides in `spec`).
  NicSchedServer(sim::Simulator& sim, net::EthernetSwitch& network,
                 const HostSpec& spec);
  ~NicSchedServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::string name() const override { return cxl() ? "ideal-nic" : "rain"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  const CoreStatusTable& core_status() const { return status_; }

  /// Writes into host memory cannot drop frames; the reliability layer
  /// exists for worker stalls/crashes. A loss injection is counted in
  /// ReliabilityStats::loss_injections_ignored and otherwise ignored.
  void inject_dispatch_loss(double probability, std::uint64_t seed) override;

 private:
  class Worker;

  bool cxl() const { return spec_.system != SystemKind::kRain; }

  hw::CpuCore& worker_core(std::uint32_t worker) override;
  bool work_waiting() const override { return !central_.empty(); }
  void send_preempt(std::size_t worker) override;

  void scheduler_handle(const net::Packet& packet);
  void scheduler_kick();
  void scheduler_step();
  void handle_cqe(const proto::RdmaCqEntry& cqe);
  void fold_sojourn(std::size_t worker, sim::Duration sojourn);
  std::uint64_t drops() const;

  bool reliable() const { return spec_.reliability.enabled; }
  void post_run_queue_entry(std::size_t worker,
                            const proto::RequestDescriptor& descriptor,
                            std::uint64_t seq);

  sim::Simulator& sim_;
  HostSpec spec_;
  /// The host↔NIC path's visibility latency and ASIC-side post cost; every
  /// run-queue and the completion queue share it.
  net::RdmaQueuePair::Config link_;
  /// What one worker post (its "started" note, its completed/preempted
  /// note) costs the worker's core.
  sim::Duration worker_post_cost_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  /// The on-NIC scheduling pipeline, modelled as a very fast core.
  hw::CpuCore asic_;
  std::unique_ptr<PacketPump> ingress_pump_;
  /// Worker→NIC completion queue; all workers post into it and the ASIC
  /// polls it ahead of new assignments.
  net::RdmaQueuePair cq_;
  bool pumping_ = false;

  CentralQueue central_;
  CoreStatusTable status_;
  SliceTimer slice_;

  std::vector<std::unique_ptr<Worker>> workers_;

  std::uint64_t requests_received_ = 0;
  std::uint64_t malformed_ = 0;

  // --- overload control (inert when !config_.overload.enabled) -------------
  overload::AdaptiveKController adaptive_k_;

  // --- reliable dispatch over doorbell/CQ (DESIGN §9/§15) ------------------
  ReliableDispatch reliable_;
  /// Stamped on every run-queue entry, reliable or not.
  std::uint64_t next_seq_ = 1;
  /// One stderr line per run for ignored dispatch-loss injections.
  bool warned_dispatch_loss_ = false;
};

}  // namespace nicsched::core
