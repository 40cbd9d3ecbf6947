// Shinjuku-Offload (§3.4): the Shinjuku networking subsystem and dispatcher
// running on the SmartNIC's ARM cores, with workers on host cores reached
// only by UDP packets through the NIC.
//
//   ARM SoC (Stingray)                          x86 host
//   ┌─────────────────────────────┐             ┌──────────────────────┐
//   │ networker ─► D1 (task queue)│  assignment │ worker 0 (vf0, timer)│
//   │               │ ch    ▲ ch  │  packets    │ worker 1 (vf1, timer)│
//   │               ▼       │     │ ──────────► │  ...                 │
//   │          D2 (pkt send)│     │  completion/│ worker N (vfN, timer)│
//   │          D3 (resp poll)◄────┼─────────────┤                      │
//   └─────────────────────────────┘  preemption └──────────────────────┘
//
// The dispatcher is split across three ARM cores "due to the high overhead
// of constructing and sending packets" (§3.4.1): D1 manages the centralized
// task queue and worker slots, D2 builds and sends assignment frames, D3
// polls and parses worker notification frames. Workers preempt themselves
// with a Dune-mapped local APIC timer (§3.4.4) and the dispatcher keeps up
// to K requests outstanding per worker to hide the 2.56 µs packet path
// (§3.4.5, the "queuing optimization").
#pragma once

#include <memory>
#include <memory_resource>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/model_params.h"
#include "core/packet_pump.h"
#include "core/reliable_dispatch.h"
#include "core/server.h"
#include "hw/apic_timer.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/arena.h"
#include "sim/simulator.h"

namespace nicsched::core {

class ShinjukuOffloadServer final : public FaultableServer {
 public:
  struct Config {
    std::size_t worker_count = 4;
    /// The queuing optimization's K: requests outstanding per worker
    /// (executing + stashed in the worker's RX ring), §3.4.5.
    std::uint32_t outstanding_per_worker = 4;
    bool preemption_enabled = true;
    sim::Duration time_slice = sim::Duration::micros(10);
    /// Dune-mapped APIC by default; linux_signal() for the §3.4.4 ablation.
    hw::TimerCosts timer_costs = hw::TimerCosts::dune();
    std::uint16_t udp_port = 8080;
    /// ARM cores dedicated to building/sending assignment frames (the D2
    /// role). The paper's prototype uses one; the Stingray has 8 ARM cores
    /// total, so up to 5 can play D2 alongside networker+D1+D3. The §5.1
    /// ablation asks whether throwing cores at the software dispatcher
    /// rescues Figure 6 (bench/ablation_arm_cores).
    std::size_t sender_cores = 1;
    /// Optional DPDK-style TX batching on D2's interface: 0 = flush every
    /// frame immediately (the calibrated default, preserving the 2.56 µs
    /// one-way path); >0 = batch up to this many frames or until
    /// `tx_batch_timeout` elapses. Exposed for the batching ablation bench.
    std::size_t tx_batch_frames = 0;
    sim::Duration tx_batch_timeout = sim::Duration::micros(8);
    /// Selection policy for the centralized task queue.
    QueuePolicy queue_policy = QueuePolicy::kFcfs;
    /// Where the Stingray writes assignment payloads on the host (§5.2).
    /// DDIO into the LLC is what the real hardware does; kDdioL1 models the
    /// paper's proposal and pays off only while K keeps the per-worker
    /// backlog under the L1 budget.
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioLlc;
    /// Reliable dispatcher↔worker protocol (DESIGN §9). Off by default so
    /// the baseline frame flow stays bit-identical.
    ReliabilityParams reliability;
    /// Overload control (DESIGN §11): informed admission at the networker,
    /// deadline shedding at D1's pop, adaptive-K from worker sojourn
    /// samples. Off by default — disabled runs stay bit-identical.
    overload::OverloadParams overload;
    /// Rack-level load feedback (DESIGN §12): workers echo their queue
    /// sojourn sample on client-bound responses (version-2 frames) so a ToR
    /// scheduler can snoop per-server load. Off by default — responses stay
    /// version-1 and runs stay bit-identical.
    bool load_feedback = false;
    /// Multi-tenant dispatch/admission (DESIGN §13): per-tenant queues with
    /// strict SLO-class priority + DRR replace the central TaskQueue, and
    /// per-tenant EWMA gates replace the global admission gate. Off by
    /// default — the classic single-queue path runs bit for bit.
    tenant::TenantParams tenant;
    /// Feedback staleness (DESIGN §15): extra delay before a worker sojourn
    /// sample folds into the adaptive-K governor, modelling control loops
    /// whose load signal lags the data path (the bilateral-feedback
    /// critique). Zero = the synchronous fold, bit for bit.
    sim::Duration feedback_staleness = sim::Duration::zero();
  };

  ShinjukuOffloadServer(sim::Simulator& sim, net::EthernetSwitch& network,
                        const ModelParams& params, Config config);
  ~ShinjukuOffloadServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::uint16_t port() const override { return config_.udp_port; }
  std::string name() const override { return "shinjuku-offload"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  /// Dispatcher-believed worker status (for the feedback-staleness example).
  const CoreStatusTable& core_status() const { return status_; }

  /// Real loss on the UDP dispatcher↔worker path, both directions.
  void inject_dispatch_loss(double probability, std::uint64_t seed) override;

 private:
  class Worker;

  struct Assignment {
    proto::RequestDescriptor descriptor;
    std::size_t worker;
    std::uint64_t seq = 0;  // 0 = unreliable legacy frame
  };

  struct Note {
    std::size_t worker = 0;
    bool preempted = false;
    proto::RequestDescriptor descriptor;  // valid when preempted
    /// Piggybacked worker queue-sojourn sample (adaptive-K input).
    bool has_sojourn = false;
    std::uint64_t sojourn_ps = 0;
  };

  void networker_handle(const net::Packet& packet);
  void d1_kick();
  void d1_step();
  void d2_send(Assignment assignment);
  void d3_handle(net::Packet packet);

  /// Hands an assignment to the next D2 sender core, round-robin.
  void send_assignment(Assignment assignment);
  bool reliable() const { return config_.reliability.enabled; }
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  std::uint64_t drops() const;
  void handle_sequenced_note(std::size_t worker, proto::SequencedNote note);

  sim::Simulator& sim_;
  ModelParams params_;
  Config config_;

  // --- Stingray ARM side -------------------------------------------------
  net::Nic arm_nic_;
  net::NicInterface* arm_net_ = nullptr;   // client-facing interface
  net::NicInterface* arm_disp_ = nullptr;  // dispatcher↔worker interface
  hw::CpuCore networker_core_;
  hw::CpuCore d1_core_;
  hw::CpuCore d3_core_;
  std::unique_ptr<PacketPump> networker_pump_;
  std::unique_ptr<PacketPump> d3_pump_;
  hw::MessageChannel<proto::RequestDescriptor> intake_channel_;
  hw::MessageChannel<Note> note_channel_;
  /// One D2 sender core per entry, each with its own work channel; D1
  /// round-robins assignments across them.
  struct SenderCore {
    std::unique_ptr<hw::CpuCore> core;
    std::unique_ptr<hw::MessageChannel<Assignment>> channel;
    std::unique_ptr<ChannelPump<Assignment>> pump;
  };
  std::vector<SenderCore> senders_;
  std::size_t next_sender_ = 0;
  bool d1_pumping_ = false;

  CentralQueue central_;
  CoreStatusTable status_;

  // --- host side -----------------------------------------------------------
  net::Nic host_nic_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // --- counters ------------------------------------------------------------
  std::uint64_t requests_received_ = 0;
  std::uint64_t preemption_requeues_ = 0;
  std::uint64_t malformed_ = 0;

  // --- overload control (DESIGN §11; inert when !config_.overload.enabled) -
  overload::AdaptiveKController adaptive_k_;

  // --- reliable dispatch (DESIGN §9; idle when !reliable()) ----------------
  ReliableDispatch reliable_;
  std::uint64_t next_seq_ = 1;  // 0 selects the unreliable legacy frame
  /// Per-worker dedupe of sequenced notes, pooled like the dispatch table.
  sim::ArenaResource note_arena_;
  std::vector<std::pmr::unordered_set<std::uint64_t>> seen_note_seqs_;
};

}  // namespace nicsched::core
