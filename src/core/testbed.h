// The experiment harness: one call builds a complete simulated testbed —
// ToR network, open-loop client machines, and the chosen server system —
// runs a load point with warmup/measure/drain phases, and returns the
// numbers a figure row needs. Everything in examples/, bench/, and the
// integration tests goes through this API.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/host_spec.h"
#include "core/model_params.h"
#include "core/server.h"
#include "core/task_queue.h"
#include "fault/chaos_schedule.h"
#include "fault/fault_schedule.h"
#include "hw/apic_timer.h"
#include "obs/capture.h"
#include "overload/overload.h"
#include "rack/tor_scheduler.h"
#include "sim/time.h"
#include "stats/recorder.h"
#include "stats/response_log.h"
#include "tenant/tenant.h"
#include "workload/arrival.h"
#include "workload/distribution.h"

namespace nicsched::core {

/// Rack-scale topology for an experiment (DESIGN §12): N identical server
/// hosts behind a ToR scheduler steering at request granularity. `hosts <= 1`
/// degenerates to the classic single-server testbed — no ToR is built and
/// the run is bit-identical with the field unset.
struct RackConfig {
  std::size_t hosts = 4;
  rack::TorPolicy policy = rack::TorPolicy::kPowerOfTwo;
  /// Echo per-request queue sojourn on responses (v2 frames) so the ToR's
  /// p2c scoring is informed. On by default in rack mode; kJsqIdeal reads
  /// true telemetry instead and flow-hash/random/rr ignore feedback.
  bool load_feedback = true;
  /// ToR failure handling (DESIGN §16): probe-based death detection, host
  /// ejection, and draining/re-steering of in-flight requests pinned to a
  /// dead host. Off = the PR-6 silence-only verdict path, bit for bit.
  /// Applied before the env pass, so NICSCHED_RACK_FAILOVER still wins.
  bool failover = false;
  /// Opt-in request hedging: a duplicate copy to the best alternative host
  /// after TorParams::hedge_after, first response wins, loser cancelled.
  bool hedge = false;
  /// Full ToR knob set. Unset = TorParams defaults with `policy`,
  /// `failover`, and `hedge` applied, then the NICSCHED_RACK_* environment
  /// contract; set = used verbatim.
  std::optional<rack::TorParams> tor;
};

struct ExperimentConfig {
  SystemKind system = SystemKind::kShinjukuOffload;
  std::size_t worker_count = 4;
  /// Shinjuku only: networker+dispatcher pairs (§2.2 scalability).
  std::size_t dispatcher_count = 1;
  /// Queuing-optimization K (offload and ideal-NIC systems).
  std::uint32_t outstanding_per_worker = 4;
  bool preemption_enabled = true;
  sim::Duration time_slice = sim::Duration::micros(10);
  hw::TimerCosts timer_costs = hw::TimerCosts::dune();
  /// Centralized-queue policy (Shinjuku, offload, and ideal-NIC systems).
  QueuePolicy queue_policy = QueuePolicy::kFcfs;
  /// Offload only: ARM cores playing the D2 sender role (§5.1 ablation).
  std::size_t sender_cores = 1;
  /// Offload only: D2 TX batching (0 = off); see ShinjukuOffloadServer.
  std::size_t tx_batch_frames = 0;
  sim::Duration tx_batch_timeout = sim::Duration::micros(8);
  /// Payload cache placement (§5.2). Unset = each system's default
  /// (DDIO-to-LLC everywhere except the ideal NIC, which targets L1).
  std::optional<hw::PlacementPolicy> placement;

  /// Required: the synthetic service-time distribution.
  std::shared_ptr<workload::ServiceDistribution> service;
  double offered_rps = 100'000.0;
  /// When set, clients use a two-state MMPP instead of plain Poisson: the
  /// configured rates are split across client machines and `offered_rps` is
  /// ignored for arrival generation (summaries still normalize against the
  /// process's long-run mean rate).
  std::optional<workload::BurstyArrivals::Config> bursty_arrivals;
  int client_machines = 4;
  std::uint16_t flows_per_client = 64;
  std::uint16_t request_padding = 24;

  sim::Duration warmup = sim::Duration::millis(5);
  /// Measurement window; zero selects an automatic window targeting
  /// `target_samples` requests (clamped to [20 ms, 500 ms]).
  sim::Duration measure = sim::Duration::zero();
  std::uint64_t target_samples = 200'000;
  sim::Duration drain = sim::Duration::millis(3);
  std::uint64_t seed = 42;

  /// Optional: every in-window response is also appended here (per-request
  /// CSV export). Not owned; must outlive run_experiment.
  stats::ResponseLog* response_log = nullptr;

  /// Observability capture (spans + metric sampling) for this run. Unset
  /// defers to the NICSCHED_TRACE environment contract (obs::
  /// capture_options_from_env); set it explicitly to force capture on or off
  /// regardless of the environment.
  std::optional<obs::CaptureOptions> capture;

  /// Fault schedule to install through the cluster's fault surface. Unset
  /// defers to the NICSCHED_FAULT_* environment contract
  /// (fault::FaultSchedule::from_env); an empty schedule injects nothing.
  /// Classic (worker/loss) entries address host 0 unless they name another
  /// host; actions at or past the run end are dropped with a warning.
  std::optional<fault::FaultSchedule> fault;
  /// Seeded chaos (DESIGN §16): a generated schedule of composed host +
  /// link + worker + loss faults. The harness overwrites the topology and
  /// window fields (`host_count`, `worker_count`, `start`, `end`) from the
  /// resolved run, so only the seed and category toggles matter here. Every
  /// fault recovers before the drain phase, so conservation holds at
  /// quiescence. Unset defers to NICSCHED_CHAOS / NICSCHED_CHAOS_SEED;
  /// unset with a clean environment injects nothing, bit for bit.
  std::optional<fault::ChaosOptions> chaos;
  /// Reliable dispatcher↔worker protocol (DESIGN §9) for the systems that
  /// support it (shinjuku, shinjuku-offload). Unset = off, preserving the
  /// baseline frame flow bit for bit.
  std::optional<bool> reliable_dispatch;
  /// Overload control (DESIGN §11): client deadlines/retries plus informed
  /// admission, deadline-aware shedding, and adaptive-K backpressure at the
  /// server. Unset defers to the NICSCHED_OVERLOAD_* environment contract
  /// (overload::OverloadParams::from_env); every feature defaults off, so an
  /// unset field with a clean environment is bit-identical to pre-overload
  /// builds.
  std::optional<overload::OverloadParams> overload;
  /// Rack-scale topology (DESIGN §12). Unset (or hosts <= 1) runs the
  /// classic single-server testbed, bit for bit. In rack mode a fault entry
  /// targets host 0 unless it names another host.
  std::optional<RackConfig> rack;
  /// Multi-tenant workload mix (DESIGN §13): the canonical way to describe
  /// offered load. Each spec is one tenant stream — its own service
  /// distribution (null = inherit `service`), offered rate (0 = a
  /// weight-proportional share of `offered_rps`), SLO class, DRR weight, and
  /// deadline — and builds `client_machines` open-loop clients of its own.
  /// Empty defers to the NICSCHED_TENANTS environment contract; empty with a
  /// clean environment runs the classic single stream, bit for bit. A mix
  /// that is only tenant id 0 is the explicit one-tenant shim: it takes the
  /// identical construction path and is also bit-identical. Tenant streams
  /// are always Poisson; `bursty_arrivals` applies to the single-stream shim
  /// only.
  std::vector<tenant::TenantSpec> tenants;
  /// False: the servers keep one FIFO across tenants (the interference
  /// baseline `examples/tenant_isolation` compares against) instead of
  /// strict-priority + weighted DRR between per-tenant queues.
  bool tenant_fair_dispatch = true;
  /// DRR credit granted per unit weight per round, in service time.
  sim::Duration tenant_quantum = sim::Duration::micros(5);

  /// Feedback staleness (DESIGN §15, the bilateral-feedback critique): an
  /// extra delay before worker sojourn samples reach the scheduler's
  /// adaptive-K governor, shared by the offload-UDP and rain families; in
  /// rack mode it also seeds the ToR's feedback_stale_after tolerance.
  /// Unset defers to NICSCHED_FEEDBACK_STALENESS_US (unset = zero). Zero is
  /// the synchronous fold, bit for bit.
  std::optional<sim::Duration> feedback_staleness;

  /// Simulator shards for the parallel engine (DESIGN §14). 0 defers to the
  /// NICSCHED_SHARDS environment contract (unset = 1); 1 is the serial
  /// engine, bit for bit. Values > 1 require rack mode (hosts >= 2) — the
  /// ToR↔host wires are the shard boundary — and are clamped to hosts + 1
  /// (shard 0 carries clients + ToR, hosts spread over the rest). kJsqIdeal
  /// racks clamp to 1: the oracle reads live cross-shard state. Digests are
  /// shard-count-invariant; see sim_shard_determinism_test.
  std::size_t shards = 0;

  ModelParams params = ModelParams::defaults();

  // ---- fluent builder ------------------------------------------------------
  // Named presets plus chainable setters so experiment definitions read as
  // one expression instead of eight field mutations:
  //
  //   auto config = ExperimentConfig::offload().workers(4).outstanding(4)
  //                     .bimodal().load(300e3);
  //
  // Every setter returns *this; presets return a fresh config by value.

  static ExperimentConfig of(SystemKind kind) {
    ExperimentConfig config;
    config.system = kind;
    return config;
  }
  static ExperimentConfig offload() { return of(SystemKind::kShinjukuOffload); }
  static ExperimentConfig shinjuku() { return of(SystemKind::kShinjuku); }
  static ExperimentConfig ideal_nic() { return of(SystemKind::kIdealNic); }
  static ExperimentConfig rss() { return of(SystemKind::kRss); }
  static ExperimentConfig rain() { return of(SystemKind::kRain); }

  /// Retargets an existing config at another system (ablation loops).
  ExperimentConfig& on(SystemKind kind) {
    system = kind;
    return *this;
  }
  ExperimentConfig& workers(std::size_t count) {
    worker_count = count;
    return *this;
  }
  ExperimentConfig& dispatchers(std::size_t count) {
    dispatcher_count = count;
    return *this;
  }
  ExperimentConfig& senders(std::size_t count) {
    sender_cores = count;
    return *this;
  }
  ExperimentConfig& outstanding(std::uint32_t k) {
    outstanding_per_worker = k;
    return *this;
  }
  ExperimentConfig& no_preemption() {
    preemption_enabled = false;
    return *this;
  }
  /// Enables preemption with the given time slice.
  ExperimentConfig& slice(sim::Duration duration) {
    preemption_enabled = true;
    time_slice = duration;
    return *this;
  }
  ExperimentConfig& policy(QueuePolicy queue) {
    queue_policy = queue;
    return *this;
  }
  ExperimentConfig& timers(hw::TimerCosts costs) {
    timer_costs = costs;
    return *this;
  }
  ExperimentConfig& place(hw::PlacementPolicy where) {
    placement = where;
    return *this;
  }
  /// Service shorthands for the paper's standard workloads. These are the
  /// supported single-stream spellings: they build the one-tenant shim over
  /// the TenantSpec model and stay bit-identical to pre-tenant builds.
  ExperimentConfig& fixed(sim::Duration work) {
    service = std::make_shared<workload::FixedDistribution>(work);
    return *this;
  }
  ExperimentConfig& fixed_5us() { return fixed(sim::Duration::micros(5)); }
  ExperimentConfig& bimodal(sim::Duration common, sim::Duration rare,
                            double rare_fraction) {
    service = std::make_shared<workload::BimodalDistribution>(common, rare,
                                                              rare_fraction);
    return *this;
  }
  /// Figure 2's workload: 99.5 % x 5 us, 0.5 % x 100 us.
  ExperimentConfig& bimodal() {
    return bimodal(sim::Duration::micros(5), sim::Duration::micros(100),
                   0.005);
  }
  ExperimentConfig& load(double rps) {
    offered_rps = rps;
    return *this;
  }
  ExperimentConfig& clients(int machines, std::uint16_t flows_each) {
    client_machines = machines;
    flows_per_client = flows_each;
    return *this;
  }
  ExperimentConfig& padding(std::uint16_t bytes) {
    request_padding = bytes;
    return *this;
  }
  ExperimentConfig& samples(std::uint64_t target) {
    target_samples = target;
    return *this;
  }
  ExperimentConfig& measure_for(sim::Duration window) {
    measure = window;
    return *this;
  }
  ExperimentConfig& with_seed(std::uint64_t value) {
    seed = value;
    return *this;
  }
  ExperimentConfig& with_capture(obs::CaptureOptions options) {
    capture = std::move(options);
    return *this;
  }
  ExperimentConfig& with_faults(fault::FaultSchedule schedule) {
    fault = std::move(schedule);
    return *this;
  }
  ExperimentConfig& with_chaos(fault::ChaosOptions options) {
    chaos = options;
    return *this;
  }
  /// Seed-only shorthand; topology and window fields are filled by the
  /// harness either way.
  ExperimentConfig& with_chaos(std::uint64_t chaos_seed) {
    fault::ChaosOptions options;
    options.seed = chaos_seed;
    chaos = options;
    return *this;
  }
  /// Enables ToR failure handling (requires rack mode; creates a default
  /// RackConfig if none is set yet — call after with_rack to compose).
  ExperimentConfig& with_failover(bool on = true) {
    if (!rack) rack.emplace();
    rack->failover = on;
    return *this;
  }
  ExperimentConfig& with_hedging(bool on = true) {
    if (!rack) rack.emplace();
    rack->hedge = on;
    return *this;
  }
  ExperimentConfig& reliable(bool on = true) {
    reliable_dispatch = on;
    return *this;
  }
  ExperimentConfig& with_overload(overload::OverloadParams knobs) {
    overload = knobs;
    return *this;
  }
  ExperimentConfig& with_rack(RackConfig topology) {
    rack = std::move(topology);
    return *this;
  }
  /// Shorthand: N hosts behind a ToR running `steer`.
  ExperimentConfig& with_rack(
      std::size_t hosts, rack::TorPolicy steer = rack::TorPolicy::kPowerOfTwo) {
    RackConfig topology;
    topology.hosts = hosts;
    topology.policy = steer;
    rack = std::move(topology);
    return *this;
  }
  /// The canonical workload description (DESIGN §13):
  ///
  ///   config.with_tenants({
  ///       tenant::make_tenant(1).named("search").weighted(4)
  ///           .slo_class(tenant::SloClass::kLatencyCritical)
  ///           .fixed(sim::Duration::micros(5)).load(200e3),
  ///       tenant::make_tenant(2).named("batch")
  ///           .slo_class(tenant::SloClass::kBestEffort),
  ///   });
  ExperimentConfig& with_tenants(std::vector<tenant::TenantSpec> mix) {
    tenants = std::move(mix);
    return *this;
  }
  /// Interference baseline: tenants tagged and accounted but dispatched
  /// from one shared FIFO.
  ExperimentConfig& tenant_fifo() {
    tenant_fair_dispatch = false;
    return *this;
  }
  ExperimentConfig& with_tenant_quantum(sim::Duration quantum) {
    tenant_quantum = quantum;
    return *this;
  }
  ExperimentConfig& with_shards(std::size_t count) {
    shards = count;
    return *this;
  }
  /// Sweepable feedback staleness: delays the adaptive-K sojourn fold by
  /// `delay` (offload + rain) and widens the ToR's staleness tolerance to at
  /// least `delay` in rack mode. Zero = the synchronous path, bit for bit.
  ExperimentConfig& with_feedback_staleness(sim::Duration delay) {
    feedback_staleness = delay;
    return *this;
  }

  /// The server-facing dispatch/admission view of the configured mix
  /// (HostSpec::from_config reads this). Disabled — the classic
  /// single-queue path, bit for bit — unless a real (id != 0) tenant is
  /// present.
  tenant::TenantParams tenant_params() const {
    tenant::TenantParams view = tenant::TenantParams::from_specs(tenants);
    view.fair_dispatch = tenant_fair_dispatch;
    view.quantum = tenant_quantum;
    return view;
  }
};

struct ExperimentResult {
  stats::RunSummary summary;
  /// Server counters snapshotted at the end of the measurement window.
  ServerStats server;
  /// Total simulator events fired over the whole run (warmup + measure +
  /// drain). The perf-benchmark harness divides this by wall time to get the
  /// events/sec trajectory; it has no effect on the modelled results.
  std::uint64_t events_fired = 0;
  /// Full recorder (overall + per-kind histograms) for richer analysis.
  stats::LatencyRecorder recorder;
  /// Mean worker utilization over the run (busy/wall).
  double mean_worker_utilization = 0.0;
  /// Set when capture was enabled for the run: recorded spans and sampled
  /// time series, already exported if an export prefix was configured.
  std::shared_ptr<obs::Capture> capture;
  /// Rack mode only: per-host server counters, index-aligned with the rack's
  /// hosts. Empty for single-host runs, where `server` is the whole story
  /// (in rack mode `server` holds the cross-host aggregate).
  std::vector<ServerStats> rack_hosts;
  /// Rack mode only: ToR dispatch/feedback counters and per-host snapshots.
  std::optional<rack::RackStats> rack;
  /// Client-side accounting aggregated over the whole run (warmup + measure
  /// + drain). At quiescence the overload conservation identity holds:
  ///   sent == completed + rejected + expired + abandoned + outstanding.
  struct ClientTotals {
    std::uint64_t sent = 0;         // first transmissions (retries excluded)
    std::uint64_t completed = 0;
    std::uint64_t goodput = 0;      // completed within deadline
    std::uint64_t rejected = 0;     // terminal kReject outcomes
    std::uint64_t expired = 0;      // deadline passed before any response
    std::uint64_t abandoned = 0;    // retry budget exhausted
    std::uint64_t outstanding = 0;  // still pending when the run stopped
    std::uint64_t retries = 0;      // timeout retransmissions
    std::uint64_t duplicates = 0;   // responses for non-pending ids
  } clients;
  /// Per-tenant slice of the run (DESIGN §13), populated only when a real
  /// tenant mix is configured (empty for untenanted runs and the one-tenant
  /// shim, keeping those results bit-identical). Order matches
  /// `ExperimentConfig::tenants`. Each tenant satisfies the conservation
  /// identity on its own `clients`, and the rows sum to the global totals.
  struct TenantResult {
    tenant::TenantSpec spec;    // as configured (service resolved)
    double offered_rps = 0.0;   // resolved offered rate for this tenant
    stats::RunSummary summary;
    stats::LatencyRecorder recorder;
    ClientTotals clients;
  };
  std::vector<TenantResult> tenants;
};

/// Runs one load point end to end. Deterministic in `config.seed`.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs the same experiment across offered loads; returns one result per
/// load, in order. This is the *serial* reference path — exp::SweepRunner
/// fans the same points across a thread pool and must match it bit for bit.
std::vector<ExperimentResult> run_sweep(ExperimentConfig config,
                                        const std::vector<double>& loads);

/// Convenience: just the RunSummary rows of a sweep.
std::vector<stats::RunSummary> sweep_summaries(
    const ExperimentConfig& config, const std::vector<double>& loads);

/// Binary-searches the highest offered load whose achieved throughput stays
/// within `efficiency` of offered (default 95 %); used by throughput-vs-K
/// experiments like Figure 3. Returns the achieved throughput at that load.
double find_saturation_throughput(ExperimentConfig config, double lo_rps,
                                  double hi_rps, double efficiency = 0.95,
                                  int iterations = 7);

}  // namespace nicsched::core
