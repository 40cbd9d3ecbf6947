#include "core/testbed.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/cluster.h"
#include "core/env_spec.h"
#include "fault/fault_injector.h"
#include "net/ethernet_switch.h"
#include "obs/capture.h"
#include "sim/random.h"
#include "sim/shard.h"
#include "sim/simulator.h"
#include "workload/arrival.h"
#include "workload/client.h"

namespace nicsched::core {

namespace {

sim::Duration choose_measure_window(const ExperimentConfig& config) {
  if (!config.measure.is_zero()) return config.measure;
  const double seconds =
      static_cast<double>(config.target_samples) / config.offered_rps;
  const sim::Duration window = sim::Duration::seconds(seconds);
  const sim::Duration lo = sim::Duration::millis(20);
  const sim::Duration hi = sim::Duration::millis(500);
  return std::clamp(window, lo, hi);
}

/// The ExperimentConfig::shards contract (DESIGN §14): 0 defers to
/// NICSCHED_SHARDS (unset = 1). Topologies with no wire boundary to shard
/// across — no rack — and the kJsqIdeal oracle (live cross-shard reads) run
/// serial regardless; a rack never needs more than hosts + 1 shards.
std::size_t resolve_shard_count(const ExperimentConfig& config, bool rack_mode,
                                std::size_t hosts, rack::TorPolicy policy) {
  std::size_t shards = config.shards;
  if (shards == 0) {
    if (const char* env = std::getenv("NICSCHED_SHARDS");
        env != nullptr && *env != '\0') {
      const long parsed = std::atol(env);
      if (parsed > 0) shards = static_cast<std::size_t>(parsed);
    }
  }
  if (shards <= 1) return 1;
  if (!rack_mode || policy == rack::TorPolicy::kJsqIdeal) return 1;
  return std::min(shards, hosts + 1);
}

std::string default_capture_label(const ExperimentConfig& config) {
  return std::string(to_string(config.system)) + "_" +
         std::to_string(static_cast<long long>(config.offered_rps)) + "rps_s" +
         std::to_string(config.seed);
}

/// One probe block over Server::telemetry(): the snapshot is taken once per
/// tick and fans into gauge series plus per-worker busy *fractions* (the
/// sampler sees cumulative busy time; this closure differences consecutive
/// snapshots over the cadence). `prefix` namespaces the series for rack runs
/// ("host2_queue_depth"); single-host runs pass "" so the series names stay
/// identical to every pre-rack capture.
void add_telemetry_probes(obs::MetricSampler& sampler, const Server& server,
                          const std::string& prefix) {
  const ServerTelemetry snapshot = server.telemetry();
  const std::size_t worker_count = snapshot.worker_busy.size();
  /// Tenant-layer-on servers also expose per-tenant backlog series; for
  /// untenanted runs this is zero extra series, so captures stay identical.
  const std::size_t tenant_count = snapshot.tenant_depths.size();
  std::vector<std::string> names = {prefix + "queue_depth",
                                    prefix + "outstanding",
                                    prefix + "preemptions",
                                    prefix + "drops",
                                    prefix + "retransmits",
                                    prefix + "abandoned",
                                    prefix + "rejected",
                                    prefix + "shed"};
  for (std::size_t i = 0; i < worker_count; ++i) {
    names.push_back(prefix + "worker" + std::to_string(i) + "_busy_frac");
  }
  for (std::size_t i = 0; i < tenant_count; ++i) {
    names.push_back(prefix + "tenant" + std::to_string(i) + "_depth");
  }
  const double cadence_ps =
      static_cast<double>(sampler.cadence().to_picos());
  auto previous_busy =
      std::make_shared<std::vector<sim::Duration>>(worker_count);
  sampler.add_probe_block(
      std::move(names),
      [&server, worker_count, tenant_count, cadence_ps, previous_busy]() {
        const ServerTelemetry t = server.telemetry();
        std::vector<double> values;
        values.reserve(8 + worker_count + tenant_count);
        values.push_back(static_cast<double>(t.queue_depth));
        values.push_back(static_cast<double>(t.outstanding));
        values.push_back(static_cast<double>(t.preemptions));
        values.push_back(static_cast<double>(t.drops));
        values.push_back(static_cast<double>(t.retransmits));
        values.push_back(static_cast<double>(t.abandoned));
        values.push_back(static_cast<double>(t.rejected));
        values.push_back(static_cast<double>(t.shed));
        for (std::size_t i = 0; i < worker_count; ++i) {
          const sim::Duration busy =
              i < t.worker_busy.size() ? t.worker_busy[i] : sim::Duration();
          const sim::Duration prev = (*previous_busy)[i];
          values.push_back(
              static_cast<double>((busy - prev).to_picos()) / cadence_ps);
          (*previous_busy)[i] = busy;
        }
        for (std::size_t i = 0; i < tenant_count; ++i) {
          values.push_back(i < t.tenant_depths.size()
                               ? static_cast<double>(t.tenant_depths[i])
                               : 0.0);
        }
        return values;
      });
}

}  // namespace

std::optional<SystemKind> try_from_string(std::string_view name) {
  constexpr SystemKind kinds[] = {
      SystemKind::kShinjuku,     SystemKind::kShinjukuOffload,
      SystemKind::kRss,          SystemKind::kFlowDirector,
      SystemKind::kWorkStealing, SystemKind::kElasticRss,
      SystemKind::kIdealNic,     SystemKind::kRpcValet,
      SystemKind::kRain,
  };
  for (const SystemKind kind : kinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

SystemKind from_string(std::string_view name) {
  if (const auto kind = try_from_string(name)) return *kind;
  throw std::invalid_argument("unknown system kind '" + std::string(name) +
                              "'");
}

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::kShinjuku: return "shinjuku";
    case SystemKind::kShinjukuOffload: return "shinjuku-offload";
    case SystemKind::kRss: return "rss-rtc";
    case SystemKind::kFlowDirector: return "flow-director";
    case SystemKind::kWorkStealing: return "work-stealing";
    case SystemKind::kElasticRss: return "elastic-rss";
    case SystemKind::kIdealNic: return "ideal-nic";
    case SystemKind::kRpcValet: return "rpcvalet";
    case SystemKind::kRain: return "rain";
  }
  return "unknown";
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.tenants.empty()) {
    // Tenant mix resolution mirrors the overload contract below: an explicit
    // with_tenants wins, otherwise NICSCHED_TENANTS declares the mix (specs
    // inherit the legacy service knob; rates split offered_rps by weight).
    std::vector<tenant::TenantSpec> env_tenants = tenant::tenants_from_env();
    if (!env_tenants.empty()) {
      ExperimentConfig resolved = config;
      resolved.tenants = std::move(env_tenants);
      return run_experiment(resolved);
    }
  }
  if (!config.service) {
    // The legacy knob may stay unset only when every tenant brings its own
    // distribution.
    bool tenants_cover = !config.tenants.empty();
    for (const auto& spec : config.tenants) {
      if (!spec.service) tenants_cover = false;
    }
    if (!tenants_cover) {
      throw std::invalid_argument("run_experiment: service distribution unset");
    }
  }
  if (config.offered_rps <= 0.0) {
    throw std::invalid_argument("run_experiment: offered_rps must be > 0");
  }
  if (config.client_machines <= 0) {
    throw std::invalid_argument("run_experiment: need >= 1 client machine");
  }
  if (!config.overload) {
    // Resolve the overload parameters once so the server factory and every
    // client machine see identical knobs: explicit config wins, otherwise the
    // NICSCHED_OVERLOAD_* environment contract (mirrors the fault schedule).
    ExperimentConfig resolved = config;
    resolved.overload = overload::OverloadParams::from_env();
    return run_experiment(resolved);
  }
  if (!config.feedback_staleness) {
    // Same resolution shape for the shared feedback-staleness knob
    // (DESIGN §15): explicit config wins, otherwise
    // NICSCHED_FEEDBACK_STALENESS_US, otherwise zero — the synchronous fold.
    ExperimentConfig resolved = config;
    resolved.feedback_staleness =
        EnvSpec::micros("NICSCHED_FEEDBACK_STALENESS_US", sim::Duration::zero());
    return run_experiment(resolved);
  }

  const bool rack_mode = config.rack && config.rack->hosts > 1;
  std::optional<rack::TorParams> tor_params;
  if (rack_mode) {
    rack::TorParams params;
    if (config.rack->tor) {
      params = *config.rack->tor;
    } else {
      params.policy = config.rack->policy;
      params.failover = config.rack->failover;
      params.hedge = config.rack->hedge;
      // The shared staleness knob seeds the ToR's tolerance before the env
      // pass so NICSCHED_RACK_STALE_US still wins; zero/unset leaves the
      // rack default untouched (bit-identical).
      if (config.feedback_staleness && !config.feedback_staleness->is_zero()) {
        params.feedback_stale_after = *config.feedback_staleness;
      }
      params = rack::TorParams::from_env(params);
    }
    tor_params = params;
  }
  const std::size_t shard_count = resolve_shard_count(
      config, rack_mode, rack_mode ? config.rack->hosts : 1,
      tor_params ? tor_params->policy : rack::TorPolicy::kRoundRobin);

  // A one-shard group IS the serial engine (ShardGroup delegates run/sync
  // straight to the single Simulator), so this path is bit-identical to the
  // pre-shard testbed whenever shard_count == 1.
  sim::ShardGroup group(shard_count);
  sim::Simulator& sim = group.front();
  ClusterBuilder builder(group);
  builder.switch_latency(config.params.switch_forward_latency);
  const HostSpec host_spec = HostSpec::from_config(config);
  if (rack_mode) {
    builder.with_rack(*tor_params);
    for (std::size_t i = 0; i < config.rack->hosts; ++i) {
      builder.add_host(host_spec);
    }
  } else {
    builder.add_host(host_spec);
  }
  Cluster cluster = builder.build();

  const sim::Duration measure = choose_measure_window(config);
  const sim::TimePoint measure_start = sim::TimePoint::origin() + config.warmup;
  const sim::TimePoint measure_end = measure_start + measure;
  const sim::TimePoint run_end = measure_end + config.drain;

  // Install the fault schedule, if any: explicit config wins, otherwise the
  // NICSCHED_FAULT_* environment contract. The cluster's rack-wide fault
  // surface routes each action to its host's surface and shard; a classic
  // (worker/loss-only) schedule addresses host 0 alone — the rest of the
  // rack stays healthy, which is exactly the asymmetry the ToR must steer
  // around. The run end is the horizon, so actions that could never fire
  // are warned about rather than silently dropped.
  std::optional<fault::FaultSchedule> fault_schedule = config.fault;
  if (!fault_schedule) fault_schedule = fault::FaultSchedule::from_env();
  std::optional<fault::FaultInjector> fault_injector;
  if (fault_schedule && !fault_schedule->empty()) {
    fault_injector.emplace(cluster, *fault_schedule, run_end);
  }

  // Seeded chaos rides alongside any explicit schedule through its own
  // injector. The topology and window fields always come from the resolved
  // run — a chaos seed means "spray *this* cluster over *this* run", never
  // a hand-built schedule — and the generator guarantees every fault
  // recovers strictly before `end`, so the drain phase reaches quiescence.
  std::optional<fault::ChaosOptions> chaos = config.chaos;
  if (!chaos && EnvSpec::flag("NICSCHED_CHAOS", false)) {
    fault::ChaosOptions options;
    options.seed = EnvSpec::u64("NICSCHED_CHAOS_SEED", 1);
    chaos = options;
  }
  std::optional<fault::FaultInjector> chaos_injector;
  if (chaos) {
    chaos->host_count =
        static_cast<std::uint32_t>(rack_mode ? config.rack->hosts : 1);
    chaos->worker_count = static_cast<std::uint32_t>(config.worker_count);
    chaos->start = sim::TimePoint::origin();
    chaos->end = measure_end;
    chaos_injector.emplace(cluster, fault::make_chaos_schedule(*chaos),
                           run_end);
  }

  ExperimentResult result;
  result.recorder.set_window(measure_start, measure_end);

  obs::CaptureOptions capture_options =
      config.capture ? *config.capture : obs::capture_options_from_env();
  if (capture_options.enabled && capture_options.label.empty()) {
    capture_options.label = default_capture_label(config);
  }
  if (capture_options.enabled) {
    result.capture =
        std::make_shared<obs::Capture>(group, std::move(capture_options));
    if (obs::MetricSampler* sampler = result.capture->metrics()) {
      if (rack_mode) {
        for (std::size_t host = 0; host < cluster.host_count(); ++host) {
          add_telemetry_probes(*sampler, cluster.server(host),
                               "host" + std::to_string(host) + "_");
        }
      } else {
        add_telemetry_probes(*sampler, cluster.server(), "");
      }
    }
    result.capture->start(measure_end);
  }

  // The FlowDirector system needs clients to address partitions by port
  // (the ToR preserves destination ports, so one plan serves every host).
  const std::uint16_t partition_count = cluster.partition_count();

  // Resolve the tenant mix into one client-stream description per tenant.
  // An empty mix is the classic single stream; a mix of only tenant 0 is
  // the explicit one-tenant shim. Every case takes the same construction
  // loop below — same client ids, same RNG fork order, same config fields —
  // so untenanted and shim runs are bit-identical to the pre-tenant testbed
  // by construction.
  std::vector<tenant::TenantSpec> streams = config.tenants;
  if (streams.empty()) streams.push_back(tenant::make_tenant(0));
  double unpinned_weight = 0.0;
  for (const auto& spec : streams) {
    if (spec.rate_rps <= 0.0) unpinned_weight += spec.weight;
  }
  double total_rate = 0.0;
  for (auto& spec : streams) {
    if (!spec.service) spec.service = config.service;
    if (!spec.service) {
      throw std::invalid_argument("run_experiment: tenant '" + spec.label() +
                                  "' has no service distribution");
    }
    if (spec.rate_rps <= 0.0) {
      // Rate-less tenants share offered_rps in proportion to their weight.
      spec.rate_rps = unpinned_weight > 0.0
                          ? config.offered_rps * (spec.weight / unpinned_weight)
                          : 0.0;
    }
    total_rate += spec.rate_rps;
  }
  const bool tenant_mode = config.tenant_params().enabled;
  if (tenant_mode) {
    result.tenants.resize(streams.size());
    for (std::size_t t = 0; t < streams.size(); ++t) {
      result.tenants[t].spec = streams[t];
      result.tenants[t].offered_rps = streams[t].rate_rps;
      result.tenants[t].recorder.set_window(measure_start, measure_end);
    }
  }

  const auto machines = static_cast<std::size_t>(config.client_machines);
  sim::Rng master(config.seed);
  std::vector<std::unique_ptr<workload::ClientMachine>> clients;
  clients.reserve(streams.size() * machines);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const tenant::TenantSpec& stream = streams[t];
    stats::LatencyRecorder* tenant_recorder =
        tenant_mode ? &result.tenants[t].recorder : nullptr;
    for (int i = 0; i < config.client_machines; ++i) {
      workload::ClientMachine::Config client;
      client.client_id = static_cast<std::uint32_t>(
          t * machines + static_cast<std::size_t>(i) + 1);
      client.mac = net::MacAddress::from_index(client.client_id);
      client.ip = net::Ipv4Address::from_index(client.client_id);
      client.flow_count = config.flows_per_client;
      client.server_mac = cluster.service_mac();
      client.server_ip = cluster.service_ip();
      client.server_port = cluster.service_port();
      client.request_padding = config.request_padding;
      client.partition_count = partition_count;
      client.wire_latency = config.params.client_wire_latency;
      client.overload = *config.overload;
      if (!stream.deadline.is_zero()) {
        client.overload.deadline = stream.deadline;
      }
      client.tenant = stream.id;

      // Client wires carry the configured propagation latency; the
      // server-side attachment latencies were chosen by the server itself.
      std::unique_ptr<workload::ArrivalProcess> arrivals;
      if (config.bursty_arrivals && streams.size() == 1 && stream.id == 0) {
        workload::BurstyArrivals::Config bursty = *config.bursty_arrivals;
        bursty.normal_rps /= config.client_machines;
        bursty.burst_rps /= config.client_machines;
        arrivals = std::make_unique<workload::BurstyArrivals>(bursty);
      } else {
        arrivals = std::make_unique<workload::PoissonArrivals>(
            stream.rate_rps / config.client_machines);
      }
      auto machine = std::make_unique<workload::ClientMachine>(
          sim, cluster.client_network(), client, stream.service,
          std::move(arrivals), master.fork());
      stats::ResponseLog* log = config.response_log;
      machine->set_on_response(
          [&result, tenant_recorder, log, measure_start, measure_end](
              const workload::ResponseRecord& r) {
            result.recorder.record(r);
            if (tenant_recorder != nullptr) tenant_recorder->record(r);
            if (log != nullptr && r.sent_at >= measure_start &&
                r.sent_at <= measure_end) {
              log->record(r);
            }
          });
      machine->set_on_issue([&result, tenant_recorder](sim::TimePoint at) {
        result.recorder.note_issued(at);
        if (tenant_recorder != nullptr) tenant_recorder->note_issued(at);
      });
      clients.push_back(std::move(machine));
    }
  }

  for (auto& client : clients) client->start(measure_end);

  // Snapshot server counters exactly at the end of the measurement window so
  // utilization excludes the drain phase. Rack mode also records per-host
  // rows and the ToR's dispatch counters at the same instant. As a sync
  // event this is allowed to read every shard's servers; with one shard it
  // is literally `sim.at(measure_end, ...)`.
  const sim::Duration elapsed_at_snapshot = config.warmup + measure;
  group.sync_at(measure_end, [&result, &cluster, elapsed_at_snapshot]() {
    result.server = cluster.stats(elapsed_at_snapshot);
    if (cluster.tor() != nullptr) {
      result.rack_hosts.reserve(cluster.host_count());
      for (std::size_t host = 0; host < cluster.host_count(); ++host) {
        result.rack_hosts.push_back(
            cluster.server(host).stats(elapsed_at_snapshot));
      }
      result.rack = cluster.tor()->stats();
    }
  });

  group.run_until(run_end);
  result.events_fired = group.events_fired();

  for (std::size_t index = 0; index < clients.size(); ++index) {
    const auto& client = clients[index];
    const auto add = [&client](ExperimentResult::ClientTotals& totals) {
      totals.sent += client->sent();
      totals.completed += client->received();
      totals.goodput += client->goodput();
      totals.rejected += client->rejected();
      totals.expired += client->expired();
      totals.abandoned += client->abandoned();
      totals.outstanding += client->outstanding();
      totals.retries += client->retries();
      totals.duplicates += client->duplicates();
    };
    add(result.clients);
    // Clients are laid out stream-major, so `index / machines` is the
    // tenant slot this machine generated load for.
    if (tenant_mode) add(result.tenants[index / machines].clients);
  }

  if (result.capture) {
    result.capture->finalize();
    result.capture->export_files();
  }

  result.summary = result.recorder.summarize(total_rate);
  for (auto& row : result.tenants) {
    row.summary = row.recorder.summarize(row.offered_rps);
  }
  if (!result.server.worker_utilization.empty()) {
    double sum = 0.0;
    for (double u : result.server.worker_utilization) sum += u;
    result.mean_worker_utilization =
        sum / static_cast<double>(result.server.worker_utilization.size());
  }
  return result;
}

std::vector<ExperimentResult> run_sweep(ExperimentConfig config,
                                        const std::vector<double>& loads) {
  std::vector<ExperimentResult> results;
  results.reserve(loads.size());
  for (double load : loads) {
    config.offered_rps = load;
    results.push_back(run_experiment(config));
  }
  return results;
}

std::vector<stats::RunSummary> sweep_summaries(
    const ExperimentConfig& config, const std::vector<double>& loads) {
  std::vector<stats::RunSummary> summaries;
  for (auto& result : run_sweep(config, loads)) {
    summaries.push_back(result.summary);
  }
  return summaries;
}

double find_saturation_throughput(ExperimentConfig config, double lo_rps,
                                  double hi_rps, double efficiency,
                                  int iterations) {
  double best_achieved = 0.0;
  for (int i = 0; i < iterations; ++i) {
    const double mid = (lo_rps + hi_rps) / 2.0;
    config.offered_rps = mid;
    const ExperimentResult result = run_experiment(config);
    const double achieved = result.summary.achieved_rps;
    best_achieved = std::max(best_achieved, achieved);
    if (achieved >= efficiency * mid) {
      lo_rps = mid;  // still keeping up; push higher
    } else {
      hi_rps = mid;
    }
  }
  return best_achieved;
}

}  // namespace nicsched::core
