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
#include "core/model_params.h"
#include "core/packet_pump.h"
#include "core/server.h"
#include "fault/fault_surface.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "hw/interrupt.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class IdealNicServer final : public Server, public fault::FaultSurface {
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

  // --- fault::FaultSurface -------------------------------------------------
  fault::FaultSurface* fault_surface() override { return this; }
  std::uint32_t fault_worker_count() const override {
    return static_cast<std::uint32_t>(config_.worker_count);
  }
  void inject_ingress_loss(double probability, std::uint64_t seed) override;
  /// No-op: the CXL assignment/status path is coherent memory, not packets.
  void inject_dispatch_loss(double probability, std::uint64_t seed) override;
  void inject_ingress_degrade(double factor) override;
  void inject_worker_stall(std::uint32_t worker,
                           sim::Duration duration) override;
  void inject_worker_crash(std::uint32_t worker) override;
  void inject_worker_resume(std::uint32_t worker) override;

 private:
  class Worker;

  enum class NoteKind { kStarted, kCompleted, kPreempted };

  struct StatusNote {
    std::size_t worker = 0;
    NoteKind kind = NoteKind::kCompleted;
    std::uint64_t request_id = 0;
    proto::RequestDescriptor descriptor;  // valid when preempted
  };

  struct RunningInfo {
    std::uint64_t request_id = 0;
    sim::TimePoint started_at;
    bool running = false;
    bool preempt_in_flight = false;
  };

  void scheduler_handle(net::Packet packet);
  void scheduler_kick();
  void scheduler_step();
  void schedule_slice_check(std::size_t worker, std::uint64_t request_id);
  void issue_preempt(std::size_t worker);

  sim::Simulator& sim_;
  net::EthernetSwitch& network_;
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
  std::vector<RunningInfo> running_;

  std::vector<std::unique_ptr<Worker>> workers_;

  std::uint64_t requests_received_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace nicsched::core
