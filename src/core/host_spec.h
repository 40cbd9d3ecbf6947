// What one server host is: the system kind plus every per-family knob. Each
// server family is constructed straight from a HostSpec and reads the knobs
// it supports; kind-specific values (the distributed steering policy, the
// NIC family's transport) are derived from `system` inside the family, so a
// direct construction and make_host_server build the same server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "core/model_params.h"
#include "core/server.h"
#include "core/task_queue.h"
#include "hw/apic_timer.h"
#include "hw/ddio.h"
#include "overload/overload.h"
#include "sim/time.h"
#include "tenant/tenant.h"

namespace nicsched::core {

enum class SystemKind {
  kShinjuku,         // host networker+dispatcher, 3.. workers
  kShinjukuOffload,  // ARM dispatcher pipeline on the SmartNIC
  kRss,              // IX-style run-to-completion
  kFlowDirector,     // MICA-style partitioned steering
  kWorkStealing,     // ZygOS-style
  kElasticRss,       // eRSS-style load-feedback rebalancing (§5.1)
  kIdealNic,         // §5.1 proposal
  /// RPCValet-style (§2.1): network interfaces integrated with the cores
  /// give a centralized queue near-perfect, instantly-informed balancing —
  /// but no preemption, so dispersion still wrecks the tail (§2.2). Modelled
  /// as the ideal-NIC machinery with ~50 ns feedback, K=1, preemption off.
  kRpcValet,
  /// RAIN-style RDMA-assisted dispatch (DESIGN §15): the ideal-NIC's
  /// line-rate scheduler pipeline, but the NIC↔worker hop is deployable
  /// RNIC hardware — sequenced assignments land as one-sided writes in
  /// per-worker run-queues, feedback returns as polled CQ entries — instead
  /// of §5.1's coherent-CXL future. Ablates the dispatch datapath alone.
  kRain,
};

const char* to_string(SystemKind kind);

/// Inverse of to_string(SystemKind): `from_string(to_string(k)) == k` for
/// every kind. Throws std::invalid_argument on an unknown name; see
/// try_from_string for the non-throwing variant.
SystemKind from_string(std::string_view name);
std::optional<SystemKind> try_from_string(std::string_view name);

struct ExperimentConfig;

/// Everything needed to build one server host. `ExperimentConfig` maps onto
/// this via `HostSpec::from_config`; direct ClusterBuilder users (tests,
/// heterogeneous racks) fill it by hand. Every mechanism knob defaults off,
/// and an off knob leaves the family's frame flow and event sequence
/// bit-identical to a build without the mechanism.
struct HostSpec {
  SystemKind system = SystemKind::kShinjukuOffload;
  std::size_t worker_count = 4;
  /// Shinjuku only: independent networker+dispatcher pairs; workers are
  /// partitioned round-robin across them and client flows are RSS-steered.
  std::size_t dispatcher_count = 1;
  /// The queuing optimization's K (§3.4.5): requests outstanding per worker,
  /// executing plus stashed in its run-queue (offload and NIC families).
  /// The NIC family's sub-µs path makes small values viable (§5.2).
  std::uint32_t outstanding_per_worker = 4;
  bool preemption_enabled = true;
  sim::Duration time_slice = sim::Duration::micros(10);
  /// Offload only: Dune-mapped APIC by default; linux_signal() for the
  /// §3.4.4 ablation.
  hw::TimerCosts timer_costs = hw::TimerCosts::dune();
  QueuePolicy queue_policy = QueuePolicy::kFcfs;
  /// Offload only: ARM cores building and sending assignment frames (the D2
  /// role), for the §5.1 ablation of whether throwing cores at the software
  /// dispatcher rescues Figure 6 (bench/ablation_arm_cores).
  std::size_t sender_cores = 1;
  /// Offload only: DPDK-style TX batching on D2's interface. 0 flushes every
  /// frame at once, the calibrated 2.56 µs one-way path; >0 batches up to
  /// this many frames or until `tx_batch_timeout` elapses.
  std::size_t tx_batch_frames = 0;
  sim::Duration tx_batch_timeout = sim::Duration::micros(8);
  /// Where payloads land in the worker's cache (§5.2); unset = the family's
  /// default. DDIO into the LLC is what real hardware does (offload,
  /// distributed). L1 pays off only while a scheduler bounds the per-core
  /// backlog under the L1 budget, so it is the NIC family's default and
  /// pointless under load for run-to-completion's unbounded rings.
  std::optional<hw::PlacementPolicy> placement;
  /// Reliable dispatcher↔worker protocol (DESIGN §9). Offload runs it over
  /// its lossy UDP path; Shinjuku's cache-line IPC is lossless, so only the
  /// liveness watchdog applies there; rain degrades it onto doorbell/CQ
  /// semantics. The coherent CXL kinds ignore it.
  ReliabilityParams reliability;
  /// Overload control (DESIGN §11): informed admission where requests
  /// arrive, deadline shedding where they are popped, and adaptive K from
  /// worker sojourn samples. Shinjuku workers have no queuing optimization
  /// (K == 1) and the CXL kinds keep a fresh status table, so adaptive K
  /// does not apply there; run-to-completion has no central queue, so each
  /// core admits and sheds against its own ring.
  overload::OverloadParams overload;
  /// Rack-level load feedback (DESIGN §12): echo queue-sojourn samples on
  /// client-bound responses as version-2 frames for ToR snooping.
  bool load_feedback = false;
  /// Multi-tenant dispatch/admission (DESIGN §13): per-tenant queues with
  /// strict SLO-class priority + DRR and per-tenant admission gates (per
  /// dispatcher group on Shinjuku). Run-to-completion shares one FIFO ring
  /// per core, so there it only tags and gates per tenant.
  tenant::TenantParams tenant;
  /// Extra delay before worker sojourn samples reach the adaptive-K
  /// governor (DESIGN §15; offload and rain families), modelling control
  /// loops whose load signal lags the data path (the bilateral-feedback
  /// critique). Zero = synchronous fold, bit for bit.
  sim::Duration feedback_staleness = sim::Duration::zero();
  ModelParams params = ModelParams::defaults();

  /// The shared knob mapping the testbed and every bench use: lifts an
  /// ExperimentConfig's host-side fields (including the resolved overload
  /// and reliability settings) into a HostSpec.
  static HostSpec from_config(const ExperimentConfig& config);

  static HostSpec offload() { return HostSpec{}; }
};

}  // namespace nicsched::core
