// The three workloads, the digest that guards their modelled results, the
// host-speed reference, and the untraced end-to-end pass.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>

#include "bench.h"
#include "fault/chaos_schedule.h"
#include "fault/fault_schedule.h"
#include "rack/tor_scheduler.h"
#include "stats/response_log.h"
#include "tenant/tenant.h"

namespace nicsched::perfbench {

namespace {

constexpr sim::Duration us(std::int64_t n) { return sim::Duration::micros(n); }
constexpr sim::Duration ms(std::int64_t n) { return sim::Duration::millis(n); }

/// Pins every field run_experiment would otherwise default from the
/// environment. `chaos` has no explicit "off" value (unset defers to
/// NICSCHED_CHAOS), so main.cpp refuses to run with any NICSCHED_* variable
/// set instead.
void pin_environment_defaults(core::ExperimentConfig& config) {
  config.capture = obs::CaptureOptions::disabled_options();
  if (!config.fault) config.fault = fault::FaultSchedule{};
  if (!config.overload) config.overload = overload::OverloadParams{};
  if (config.tenants.empty()) config.tenants = {tenant::make_tenant(0)};
  if (!config.reliable_dispatch) config.reliable_dispatch = false;
  config.feedback_staleness = sim::Duration::zero();
  config.shards = 1;
}

/// A 4-host rack with every ToR knob set (so NICSCHED_RACK_* is never read).
core::RackConfig rack_of_four(bool failover_and_hedging) {
  rack::TorParams tor;
  tor.policy = rack::TorPolicy::kPowerOfTwo;
  tor.failover = failover_and_hedging;
  tor.hedge = failover_and_hedging;
  core::RackConfig rack;
  rack.hosts = 4;
  rack.policy = tor.policy;
  rack.load_feedback = true;
  rack.failover = tor.failover;
  rack.hedge = tor.hedge;
  rack.tor = tor;
  return rack;
}

core::ExperimentConfig offload_fixed1us(std::uint64_t seed) {
  auto config = core::ExperimentConfig::offload()
                    .workers(4)
                    .outstanding(4)
                    .fixed(us(1))
                    .no_preemption()
                    .load(800e3)
                    .clients(4, 64)
                    .measure_for(ms(150))
                    .with_seed(seed);
  config.warmup = ms(2);
  config.drain = ms(2);
  pin_environment_defaults(config);
  return config;
}

core::ExperimentConfig rain_rack_bimodal(std::uint64_t seed) {
  auto config = core::ExperimentConfig::rain()
                    .workers(4)
                    .outstanding(1)
                    .bimodal(us(5), us(100), 0.005)
                    .slice(us(10))
                    .load(2.0e6)
                    .clients(4, 64)
                    .measure_for(ms(120))
                    .with_rack(rack_of_four(false))
                    .with_seed(seed);
  config.warmup = ms(2);
  config.drain = ms(2);
  pin_environment_defaults(config);
  return config;
}

core::ExperimentConfig offload_chaos_rack(std::uint64_t seed) {
  overload::OverloadParams over;
  over.enabled = true;
  over.deadline = us(400);
  over.retry_budget = 2;
  over.retry_timeout = us(150);
  fault::ChaosOptions chaos;
  chaos.seed = seed * 131 + 7;
  auto config =
      core::ExperimentConfig::offload()
          .workers(2)
          .outstanding(2)
          .bimodal(us(5), us(100), 0.005)
          .load(300e3)
          .clients(4, 16)
          .measure_for(ms(200))
          .with_rack(rack_of_four(true))
          .with_chaos(chaos)
          .with_overload(over)
          .reliable()
          .with_tenants(
              {tenant::make_tenant(1).named("lc").weighted(4).slo_class(
                   tenant::SloClass::kLatencyCritical),
               tenant::make_tenant(2).named("be").slo_class(
                   tenant::SloClass::kBestEffort)})
          .with_seed(seed);
  config.warmup = ms(2);
  config.drain = ms(3);
  pin_environment_defaults(config);
  return config;
}

/// Recorded model digests of the full modelled window: the default seed 42,
/// the held-out seed 1042 (never used while tuning) and seeds 0-20.
/// Regenerate with `perfbench --digest` only in a change that means to move
/// the modelled results, and say so in its description.
struct Golden {
  const char* workload;
  std::uint64_t seed;
  std::uint64_t digest;
};
constexpr Golden kGoldens[] = {
    {"offload_fixed1us", 42, 0x9d6542d9ceb3ed5aULL},
    {"offload_fixed1us", 1042, 0x544da585eb1dbdaaULL},
    {"offload_fixed1us", 0, 0x07e0d1ba92c6423aULL},
    {"offload_fixed1us", 1, 0xa84cdcd664328015ULL},
    {"offload_fixed1us", 2, 0xe67038175573c326ULL},
    {"offload_fixed1us", 3, 0xd784a1ed9266cd39ULL},
    {"offload_fixed1us", 4, 0x4583d535098d401bULL},
    {"offload_fixed1us", 5, 0xf8059bd1e37f5e14ULL},
    {"offload_fixed1us", 6, 0xcceee4cd28739fc4ULL},
    {"offload_fixed1us", 7, 0x0c7a4d118d1a8655ULL},
    {"offload_fixed1us", 8, 0x1fa2dcdd8030762fULL},
    {"offload_fixed1us", 9, 0xeae602f632336ad6ULL},
    {"offload_fixed1us", 10, 0x54f272eb66078214ULL},
    {"offload_fixed1us", 11, 0x64325ff5671096eaULL},
    {"offload_fixed1us", 12, 0xb9cd6810f0fb7636ULL},
    {"offload_fixed1us", 13, 0xd56aa7dee078f291ULL},
    {"offload_fixed1us", 14, 0x4f92b3d0c5376229ULL},
    {"offload_fixed1us", 15, 0x734af2eee2b3aa2aULL},
    {"offload_fixed1us", 16, 0x0fbd2e459baa4c88ULL},
    {"offload_fixed1us", 17, 0x65f957dcb69a1050ULL},
    {"offload_fixed1us", 18, 0x8038cc263ce8631dULL},
    {"offload_fixed1us", 19, 0xad5c2aeef192f678ULL},
    {"offload_fixed1us", 20, 0xe64b3de96ca394c0ULL},
    {"rain_rack_bimodal", 42, 0xe2ddf2449938beacULL},
    {"rain_rack_bimodal", 1042, 0x616d325fd2ecf96bULL},
    {"rain_rack_bimodal", 0, 0x7084b39124375bbbULL},
    {"rain_rack_bimodal", 1, 0xe777e4fb3c1c693aULL},
    {"rain_rack_bimodal", 2, 0x149e3c6dedad44b0ULL},
    {"rain_rack_bimodal", 3, 0xe05c800aef708b47ULL},
    {"rain_rack_bimodal", 4, 0x51930dcf7474c71dULL},
    {"rain_rack_bimodal", 5, 0xcf17284d20e58adeULL},
    {"rain_rack_bimodal", 6, 0x892581991382005eULL},
    {"rain_rack_bimodal", 7, 0xb5d43def6402a11aULL},
    {"rain_rack_bimodal", 8, 0xf182040764c0aa5eULL},
    {"rain_rack_bimodal", 9, 0x4b12815f77df371eULL},
    {"rain_rack_bimodal", 10, 0xa0089c60913851ffULL},
    {"rain_rack_bimodal", 11, 0x1441e990fef07dd8ULL},
    {"rain_rack_bimodal", 12, 0xe89bd1b9dee46a68ULL},
    {"rain_rack_bimodal", 13, 0x8bd26017b303c6aaULL},
    {"rain_rack_bimodal", 14, 0x4f60df65019e2d3bULL},
    {"rain_rack_bimodal", 15, 0x43ae67bd6cf37097ULL},
    {"rain_rack_bimodal", 16, 0xf73c3a79bb6990faULL},
    {"rain_rack_bimodal", 17, 0xefd8f62bcead3962ULL},
    {"rain_rack_bimodal", 18, 0xecf5ef5d7a59ea4fULL},
    {"rain_rack_bimodal", 19, 0x78fae7c43af90033ULL},
    {"rain_rack_bimodal", 20, 0x2719631f933260f0ULL},
    {"offload_chaos_rack", 42, 0x2f8a320ffd82cc4bULL},
    {"offload_chaos_rack", 1042, 0xc62bdf69e4bd23c3ULL},
    {"offload_chaos_rack", 0, 0x3d50fdfbee47f363ULL},
    {"offload_chaos_rack", 1, 0x321d4ea1489e8f2aULL},
    {"offload_chaos_rack", 2, 0xdd7d52c0756ad95eULL},
    {"offload_chaos_rack", 3, 0xc97525b727856ba2ULL},
    {"offload_chaos_rack", 4, 0xf00e6207407d6a88ULL},
    {"offload_chaos_rack", 5, 0x3eb7214758712360ULL},
    {"offload_chaos_rack", 6, 0x942f696e02b501b6ULL},
    {"offload_chaos_rack", 7, 0x3a75b47baeb60d51ULL},
    {"offload_chaos_rack", 8, 0x56aec29306025a80ULL},
    {"offload_chaos_rack", 9, 0x3ac3aaf8dcf4bd27ULL},
    {"offload_chaos_rack", 10, 0x686b5bc8418821f5ULL},
    {"offload_chaos_rack", 11, 0x8c7111b107b3dcb1ULL},
    {"offload_chaos_rack", 12, 0x33257d98bbefcaa1ULL},
    {"offload_chaos_rack", 13, 0x9bf6994f92509789ULL},
    {"offload_chaos_rack", 14, 0x3138baa1d35a7edaULL},
    {"offload_chaos_rack", 15, 0x0da6531ada48b7a7ULL},
    {"offload_chaos_rack", 16, 0xc6ab3121862c97cbULL},
    {"offload_chaos_rack", 17, 0xfc3b81336a7a787cULL},
    {"offload_chaos_rack", 18, 0x6a2ece5a4b1ad789ULL},
    {"offload_chaos_rack", 19, 0xa353b6bbf4ab5503ULL},
    {"offload_chaos_rack", 20, 0x4a7511cdb499d3b1ULL},
};

void hash_summary(Digest& d, const stats::RunSummary& s) {
  d.add(s.offered_rps);
  d.add(s.achieved_rps);
  d.add(s.issued);
  d.add(s.completed);
  d.add(s.mean_us);
  d.add(s.p50_us);
  d.add(s.p90_us);
  d.add(s.p99_us);
  d.add(s.p999_us);
  d.add(s.max_us);
  d.add(s.preemptions);
  d.add(s.goodput);
  d.add(s.goodput_rps);
}

void hash_clients(Digest& d, const core::ExperimentResult::ClientTotals& c) {
  for (std::uint64_t v : {c.sent, c.completed, c.goodput, c.rejected,
                          c.expired, c.abandoned, c.outstanding, c.retries,
                          c.duplicates}) {
    d.add(v);
  }
}

void hash_overload(Digest& d, const overload::OverloadStats& o) {
  for (std::uint64_t v : {o.admitted, o.rejected, o.shed_expired, o.k_shrinks,
                          o.k_restores}) {
    d.add(v);
  }
}

void hash_server(Digest& d, const core::ServerStats& s) {
  for (std::uint64_t v :
       {s.requests_received, s.responses_sent, s.preemptions,
        s.spurious_interrupts, s.steals, s.drops, s.cancelled,
        static_cast<std::uint64_t>(s.queue_max_depth)}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(s.worker_utilization.size()));
  for (double u : s.worker_utilization) d.add(u);
  d.add(s.ddio.l1_touches);
  d.add(s.ddio.llc_touches);
  d.add(s.ddio.dram_touches);
  const core::ReliabilityStats& r = s.reliability;
  for (std::uint64_t v :
       {r.retransmits, r.note_retransmits, r.timeouts, r.redispatched,
        r.abandoned, r.duplicates, r.worker_deaths, r.revivals,
        r.loss_injections_ignored}) {
    d.add(v);
  }
  hash_overload(d, s.overload);
  d.add(static_cast<std::uint64_t>(s.tenants.size()));
  for (const tenant::TenantStats& t : s.tenants) {
    d.add(static_cast<std::uint64_t>(t.id));
    d.add(t.enqueued);
    d.add(t.dispatched);
    d.add(static_cast<std::uint64_t>(t.max_depth));
    hash_overload(d, t.overload);
  }
}

void hash_rack_tenants(Digest& d,
                       const std::vector<rack::RackTenantStats>& rows) {
  d.add(static_cast<std::uint64_t>(rows.size()));
  for (const rack::RackTenantStats& t : rows) {
    d.add(static_cast<std::uint64_t>(t.tenant));
    d.add(t.requests);
    d.add(t.responses);
    d.add(t.rejects);
    d.add(t.outstanding);
  }
}

void hash_rack(Digest& d, const rack::RackStats& r) {
  for (std::uint64_t v :
       {r.requests_forwarded, r.responses_forwarded, r.rejects_forwarded,
        r.other_forwarded, r.malformed_dropped, r.affinity_hits,
        r.affinity_expired, r.unknown_responses, r.informed_decisions,
        r.stale_decisions, r.feedback_samples, r.feedback_discarded_dead,
        r.probes_sent, r.probe_acks, r.probe_deaths, r.requests_resteered,
        r.hedges_sent, r.hedge_wins, r.cancels_sent,
        r.duplicates_suppressed}) {
    d.add(v);
  }
  d.add(static_cast<std::uint64_t>(r.hosts.size()));
  for (const rack::RackHostStats& h : r.hosts) {
    for (std::uint64_t v : {h.requests, h.responses, h.rejects, h.outstanding,
                            h.deaths, h.revivals, h.resets,
                            h.feedback_discarded}) {
      d.add(v);
    }
    d.add(h.sojourn_ewma_us);
    d.add(static_cast<std::uint64_t>(h.queue_depth));
    hash_rack_tenants(d, h.tenants);
  }
  hash_rack_tenants(d, r.tenants);
}

bool conserved(const core::ExperimentResult::ClientTotals& c) {
  return c.sent ==
         c.completed + c.rejected + c.expired + c.abandoned + c.outstanding;
}

double fail_fraction(const core::ExperimentResult::ClientTotals& c) {
  return static_cast<double>(c.rejected + c.expired + c.abandoned) /
         static_cast<double>(c.sent);
}

/// Exact nearest-rank quantile of the in-window latencies (the recorder's
/// histogram buckets would round them to <0.8 %).
double latency_quantile_us(std::vector<std::int64_t>& latencies_ps, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(latencies_ps.size() - 1));
  std::nth_element(latencies_ps.begin(),
                   latencies_ps.begin() + static_cast<std::ptrdiff_t>(rank),
                   latencies_ps.end());
  return static_cast<double>(latencies_ps[rank]) / 1e6;
}

/// Keeps the reference kernel's work observable.
volatile std::uint64_t g_reference_checksum = 0;

/// Returns freed heap pages to the kernel, then restarts its peak-RSS mark
/// (VmHWM) from the current RSS.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

/// Peak RSS since the last reset_peak_rss(); getrusage's lifetime peak
/// when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

double reference_ops_per_s() {
  // An event-loop-shaped kernel that shares no code with the simulator: a
  // 4096-entry binary heap of timestamps, each pop updating a pseudo-random
  // slot of a 4 MiB table. Its speed follows the cache and memory
  // contention the simulator sees on a shared host.
  static std::vector<std::uint64_t> table(std::size_t{1} << 19, 1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 4096; ++i) heap.push_back({next() & 0xffff, i});
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  constexpr std::uint64_t kOps = 400'000;
  std::uint64_t checksum = 0;
  WallTimer timer;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const auto [when, id] = heap.back();
    heap.pop_back();
    std::uint64_t& slot = table[(next() ^ id) & (table.size() - 1)];
    slot += when;
    checksum += slot;
    heap.push_back({when + (x & 0xfff) + 1, id});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double rate = static_cast<double>(kOps) / timer.seconds();
  g_reference_checksum = g_reference_checksum + checksum;
  return rate;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"offload_fixed1us", offload_fixed1us, ms(40)},
      {"rain_rack_bimodal", rain_rack_bimodal, ms(20)},
      {"offload_chaos_rack", offload_chaos_rack, ms(50)},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t config_hash(const core::ExperimentConfig& c) {
  Digest d;
  d.add(static_cast<std::uint64_t>(c.system));
  d.add(static_cast<std::uint64_t>(c.worker_count));
  d.add(static_cast<std::uint64_t>(c.outstanding_per_worker));
  d.add(static_cast<std::uint64_t>(c.preemption_enabled));
  d.add(static_cast<std::uint64_t>(c.time_slice.to_picos()));
  d.add(c.offered_rps);
  d.add(static_cast<std::uint64_t>(c.client_machines));
  d.add(static_cast<std::uint64_t>(c.flows_per_client));
  d.add(static_cast<std::uint64_t>(c.warmup.to_picos()));
  d.add(static_cast<std::uint64_t>(c.measure.to_picos()));
  d.add(static_cast<std::uint64_t>(c.drain.to_picos()));
  d.add(c.seed);
  d.add(static_cast<std::uint64_t>(c.shards));
  d.add(static_cast<std::uint64_t>(c.reliable_dispatch.value_or(false)));
  d.add(static_cast<std::uint64_t>(c.overload && c.overload->enabled));
  d.add(static_cast<std::uint64_t>(c.rack ? c.rack->hosts : 1));
  d.add(static_cast<std::uint64_t>(c.chaos ? c.chaos->seed : 0));
  for (const tenant::TenantSpec& t : c.tenants) {
    d.add(static_cast<std::uint64_t>(t.id));
    d.add(t.weight);
    d.add(static_cast<std::uint64_t>(t.slo));
  }
  for (const char ch : c.service->name()) d.add(static_cast<std::uint64_t>(ch));
  d.add(static_cast<std::uint64_t>(c.service->mean().to_picos()));
  return d.value();
}

std::uint64_t model_digest(const core::ExperimentResult& result) {
  Digest d;
  hash_summary(d, result.summary);
  hash_clients(d, result.clients);
  hash_server(d, result.server);
  d.add(static_cast<std::uint64_t>(result.rack.has_value()));
  if (result.rack) hash_rack(d, *result.rack);
  d.add(static_cast<std::uint64_t>(result.tenants.size()));
  for (const auto& t : result.tenants) {
    d.add(static_cast<std::uint64_t>(t.spec.id));
    d.add(t.offered_rps);
    hash_summary(d, t.summary);
    hash_clients(d, t.clients);
  }
  return d.value();
}

std::uint64_t golden_digest(const std::string& workload, std::uint64_t seed) {
  for (const Golden& g : kGoldens) {
    if (workload == g.workload && seed == g.seed) return g.digest;
  }
  return 0;
}

std::vector<std::string> check_run(const core::ExperimentResult& result,
                                   std::uint64_t expected_digest,
                                   const std::string& expectation) {
  std::vector<std::string> failures;
  if (result.clients.sent == 0) failures.push_back("no requests sent");
  if (!conserved(result.clients)) {
    failures.push_back("conservation: sent != completed + rejected + "
                       "expired + abandoned + outstanding");
  }
  for (const auto& t : result.tenants) {
    if (!conserved(t.clients)) {
      std::string failure = "conservation broken for tenant ";
      failure += std::to_string(t.spec.id);
      failures.push_back(failure);
    }
  }
  if (expected_digest != 0 && model_digest(result) != expected_digest) {
    failures.push_back("model digest differs from the " + expectation);
  }
  return failures;
}

PassResult run_end_to_end(const Workload& workload, std::uint64_t seed,
                          double seconds) {
  PassResult pass;
  const core::ExperimentConfig config = workload.config(seed);

  // Untimed warm-up run; its response log gives exact latency quantiles.
  core::ExperimentResult warm;
  std::vector<std::int64_t> latencies_ps;
  bool truncated = false;
  {
    stats::ResponseLog log(4'000'000);
    core::ExperimentConfig logged = config;
    logged.response_log = &log;
    warm = core::run_experiment(logged);
    latencies_ps.reserve(log.records().size());
    for (const auto& r : log.records()) {
      latencies_ps.push_back(r.latency().to_picos());
    }
    truncated = log.truncated();
  }
  pass.digest = model_digest(warm);
  std::vector<std::string> warm_failures =
      check_run(warm, golden_digest(workload.name, seed), "recorded golden");
  if (truncated) warm_failures.push_back("response log truncated");
  if (latencies_ps.empty()) warm_failures.push_back("no in-window responses");
  pass.record(std::move(warm_failures));
  if (latencies_ps.empty()) return pass;

  // Timed repetitions of the shorter timing config, each bracketed by the
  // host-speed reference so figures are scaled to a nominal host (README,
  // "Steadiness"); set-up batches ride along inside the same brackets.
  core::ExperimentConfig timed = config;
  timed.measure = workload.timed_measure;
  core::ExperimentConfig setup = config;
  setup.warmup = sim::Duration::nanos(1);
  setup.measure = sim::Duration::nanos(1);
  setup.drain = sim::Duration::nanos(1);

  constexpr std::size_t kMinTimedRuns = 5;
  constexpr std::size_t kSetupBatch = 20;
  std::vector<double> raw_rates;
  std::vector<double> rates;
  std::vector<double> setup_s;
  std::vector<double> speeds;
  std::uint64_t timed_digest = 0;
  double reference_before = reference_ops_per_s();
  // Peak RSS covers the first timed repetition and set-up batch: not the
  // response log above, and not the heap drift of later repetitions.
  if (!reset_peak_rss()) std::cerr << "perfbench: cannot reset peak RSS\n";
  double peak_rss = 0.0;
  WallTimer budget;
  while (budget.seconds() < seconds || rates.size() < kMinTimedRuns) {
    WallTimer timer;
    const core::ExperimentResult result = core::run_experiment(timed);
    const double wall = timer.seconds();
    std::vector<double> batch;
    for (std::size_t i = 0; i < kSetupBatch; ++i) {
      WallTimer setup_timer;
      core::run_experiment(setup);
      batch.push_back(setup_timer.seconds());
    }
    const double reference_after = reference_ops_per_s();
    const double speed = std::sqrt(reference_before * reference_after) /
                         kReferenceNominalOpsPerS;
    reference_before = reference_after;

    pass.record(check_run(result, timed_digest, "first timed run"));
    if (timed_digest == 0) timed_digest = model_digest(result);
    const double rate = static_cast<double>(result.clients.sent) / wall;
    raw_rates.push_back(rate);
    rates.push_back(rate / speed);
    for (const double s : batch) setup_s.push_back(s * speed);
    speeds.push_back(speed);
    if (peak_rss == 0.0) peak_rss = peak_rss_mb();
  }
  const std::uint64_t samples = latencies_ps.size();
  std::cout << "info  " << workload.name << " seed=" << seed
            << " timed_runs=" << rates.size()
            << " setup_runs=" << setup_s.size()
            << " latency_samples=" << samples
            << " beyond_p999=" << samples - static_cast<std::uint64_t>(
                                                0.999 * static_cast<double>(samples))
            << " model_fail_frac=" << fail_fraction(warm.clients)
            << " sent=" << warm.clients.sent
            << " raw_req_per_wall_s=" << median(raw_rates)
            << " host_speed=" << median(speeds) << "\n";

  pass.metrics = {
      {"sim_req_per_s", median(rates), "1/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"model_p50_us", latency_quantile_us(latencies_ps, 0.50), "us"},
      {"model_p999_us", latency_quantile_us(latencies_ps, 0.999), "us"},
      {"model_goodput_rps", warm.summary.goodput_rps, "1/s"},
      {"model_ok_frac", 1.0 - fail_fraction(warm.clients), "ratio"},
  };
  return pass;
}

}  // namespace nicsched::perfbench
