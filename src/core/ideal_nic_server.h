// The §5.1 "ideal SmartNIC": the research direction the paper argues for,
// built to measure how much of the Figure 6 gap the proposed hardware would
// close.
//
//   1. Line-rate scheduling — the dispatcher is an ASIC/FPGA pipeline whose
//      per-decision cost is nanoseconds, not an ARM core.
//   2. CXL-class coherent path — assignments are written straight into host
//      memory where polling workers see them a few hundred nanoseconds
//      later; completion/preemption flags flow back the same way, so the
//      core-status table is almost fresh.
//   3. Direct NIC→core interrupts — preemption is informed (only fired when
//      work is waiting) and does not depend on worker-local timers or the
//      queuing optimization.
//   4. DDIO into high-level caches — §5.2: with at most a couple requests
//      outstanding per core the payload can sit in L1, making the worker's
//      pop nearly free.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/host_worker.h"
#include "core/model_params.h"
#include "core/packet_pump.h"
#include "core/server.h"
#include "core/slice_timer.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class IdealNicServer final : public FaultableServer, private SliceTimer::Hooks {
 public:
  struct Config {
    std::size_t worker_count = 4;
    /// Requests outstanding per worker. The fast path makes small values
    /// viable (§5.2 "may be able to have fewer outstanding requests").
    std::uint32_t outstanding_per_worker = 2;
    bool preemption_enabled = true;
    sim::Duration time_slice = sim::Duration::micros(10);
    std::uint16_t udp_port = 8080;
    /// Selection policy for the centralized task queue.
    QueuePolicy queue_policy = QueuePolicy::kFcfs;
    /// §5.2: a NIC whose scheduler bounds per-core outstanding requests can
    /// place payloads straight into L1 "without danger of filling it".
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioL1;
    /// Overload control (DESIGN §11): admission + deadline shedding in the
    /// ASIC pipeline. The coherent status path keeps the core-status table
    /// near-fresh, so adaptive-K adds nothing here. Off by default.
    overload::OverloadParams overload;
    /// Rack-level load feedback (DESIGN §12): responses echo the request's
    /// NIC-queue sojourn as a version-2 frame for ToR snooping. Off by
    /// default.
    bool load_feedback = false;
    /// Multi-tenant dispatch/admission (DESIGN §13) in the ASIC pipeline:
    /// SLO-priority + DRR replace the FCFS task queue and per-tenant gates
    /// replace the global one. Off by default.
    tenant::TenantParams tenant;
  };

  IdealNicServer(sim::Simulator& sim, net::EthernetSwitch& network,
                 const ModelParams& params, Config config);
  ~IdealNicServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::uint16_t port() const override { return config_.udp_port; }
  std::string name() const override { return "ideal-nic"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  const CoreStatusTable& core_status() const { return status_; }

 private:
  class Worker;

  struct StatusNote {
    std::size_t worker = 0;
    HostWorker::Note kind = HostWorker::Note::kCompleted;
    proto::RequestDescriptor descriptor;  // read when preempted
  };

  // Fault surface: dispatch loss stays the base no-op — the CXL
  // assignment/status path is coherent memory, not packets.
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  bool work_waiting() const override { return !central_.empty(); }
  void send_preempt(std::size_t worker) override;

  void scheduler_handle(net::Packet packet);
  void scheduler_kick();
  void scheduler_step();
  std::uint64_t drops() const;

  sim::Simulator& sim_;
  ModelParams params_;
  Config config_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  /// The on-NIC scheduling pipeline, modelled as a very fast core.
  hw::CpuCore asic_;
  std::unique_ptr<PacketPump> ingress_pump_;
  hw::MessageChannel<StatusNote> status_channel_;
  bool pumping_ = false;

  CentralQueue central_;
  CoreStatusTable status_;
  SliceTimer slice_;

  std::vector<std::unique_ptr<Worker>> workers_;

  std::uint64_t requests_received_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace nicsched::core
