// The `rain` family (DESIGN §15): RDMA-assisted NIC dispatch, deployable on
// today's RNIC hardware.
//
// The §5.1 ideal SmartNIC assumes a CXL-class coherent NIC↔host path. RAIN
// (PAPERS.md) observes that commodity RNICs already offer a primitive almost
// as good: the NIC-side scheduler posts sequenced assignments as one-sided
// RDMA writes straight into per-worker run-queues in host memory, and worker
// completions flow back the same way as completion-queue entries. This
// server keeps the ideal NIC's line-rate ASIC scheduling pipeline and
// ablates exactly one thing — the NIC↔worker datapath — replacing the
// coherent CXL hop with the modelled RDMA write/doorbell/CQ-poll path
// (`net::RdmaQueuePair`, constants in `ModelParams::rdma_*`):
//
//   1. Line-rate scheduling — same ASIC pipeline as the ideal NIC; the
//      scheduler is not the 2 MRPS ARM bottleneck of Shinjuku-Offload.
//   2. One-sided dispatch — assignments are kRdmaRunQueueEntry frames
//      written into the worker's run-queue; no UDP construction, checksums,
//      or ring DMA. Visibility is one posted-write traversal plus the
//      poller's batching skew instead of 2.56 µs.
//   3. CQ feedback — started/completed/preempted kRdmaCqEntry frames flow
//      back over the same path, so the core-status table is nearly as fresh
//      as the ideal NIC's.
//   4. Reliability degrades onto doorbell/CQ semantics (DESIGN §9 reused,
//      not forked): every run-queue entry carries a sequence number, the
//      worker's kStarted CQE is the dispatch ack, an RTO re-posts the write
//      (the worker dedupes by seq), and a completion watchdog catches
//      workers dying after pickup.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/host_worker.h"
#include "core/model_params.h"
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

class RainServer final : public FaultableServer, private SliceTimer::Hooks {
 public:
  struct Config {
    std::size_t worker_count = 4;
    /// Requests outstanding per worker. The sub-µs RDMA path makes small
    /// values viable — the dispatch-path ablation's headline is K=1.
    std::uint32_t outstanding_per_worker = 2;
    bool preemption_enabled = true;
    sim::Duration time_slice = sim::Duration::micros(10);
    std::uint16_t udp_port = 8080;
    /// Selection policy for the centralized task queue.
    QueuePolicy queue_policy = QueuePolicy::kFcfs;
    /// §5.2 applies unchanged: a scheduler that bounds per-core outstanding
    /// requests can DDIO payloads into L1.
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioL1;
    /// Reliable dispatch (DESIGN §9) degraded onto doorbell/CQ semantics;
    /// off by default so baseline runs carry no seq tracking.
    ReliabilityParams reliability;
    /// Overload control (DESIGN §11): admission + shedding in the ASIC
    /// pipeline, adaptive-K fed by worker sojourn samples on kCompleted CQ
    /// entries. Off by default.
    overload::OverloadParams overload;
    /// Rack-level load feedback (DESIGN §12): responses echo the request's
    /// NIC-queue sojourn as a version-2 frame for ToR snooping. Off by
    /// default.
    bool load_feedback = false;
    /// Multi-tenant dispatch/admission (DESIGN §13) in the ASIC pipeline.
    /// Off by default.
    tenant::TenantParams tenant;
    /// Extra delay before a CQ sojourn sample folds into the adaptive-K
    /// governor (DESIGN §15, shared with the offload family). Zero =
    /// synchronous fold, bit for bit.
    sim::Duration feedback_staleness = sim::Duration::zero();
  };

  RainServer(sim::Simulator& sim, net::EthernetSwitch& network,
             const ModelParams& params, Config config);
  ~RainServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::uint16_t port() const override { return config_.udp_port; }
  std::string name() const override { return "rain"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  const CoreStatusTable& core_status() const { return status_; }

  /// One-sided writes into host memory cannot drop frames; the reliability
  /// layer exists for worker stalls/crashes. A loss injection is counted in
  /// ReliabilityStats::loss_injections_ignored and otherwise ignored.
  void inject_dispatch_loss(double probability, std::uint64_t seed) override;

 private:
  class Worker;

  hw::CpuCore& worker_core(std::uint32_t worker) override;
  bool work_waiting() const override { return !central_.empty(); }
  void send_preempt(std::size_t worker) override;

  void scheduler_handle(net::Packet packet);
  void scheduler_kick();
  void scheduler_step();
  void handle_cqe(const proto::RdmaCqEntry& cqe);
  void fold_sojourn(std::size_t worker, sim::Duration sojourn);
  std::uint64_t drops() const;

  bool reliable() const { return config_.reliability.enabled; }
  void post_run_queue_entry(std::size_t worker,
                            const proto::RequestDescriptor& descriptor,
                            std::uint64_t seq);

  sim::Simulator& sim_;
  ModelParams params_;
  Config config_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  /// The on-NIC scheduling pipeline — same ASIC model as the ideal NIC.
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
