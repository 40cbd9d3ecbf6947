// Shared declarations of the perf benchmark (see README.md): the three
// workloads, the digest that guards their modelled results, and the two
// passes main.cpp runs — the untraced end-to-end pass and the traced
// per-layer pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.h"

namespace nicsched::perfbench {

/// Seconds on the host's monotonic clock since construction.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Operations per second of a fixed reference kernel that shares no code
/// with the simulator: a probe of the host's current speed (~70 ms).
double reference_ops_per_s();

/// Reference speed of the nominal host that host-time metrics are scaled
/// to: a 4-vCPU shared Xeon VM in its uncontended state.
inline constexpr double kReferenceNominalOpsPerS = 6.0e6;

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> values);

/// FNV-1a 64 over little-endian words; doubles are hashed by bit pattern.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One of the benchmark's workloads; README.md says why each exists.
struct Workload {
  const char* name;
  /// The exact run_experiment configuration for `seed`, every
  /// environment-defaulted field pinned.
  core::ExperimentConfig (*config)(std::uint64_t seed);
  /// Shorter measurement window of the timed repetitions (the modelled
  /// metrics come from the full window of `config`).
  sim::Duration timed_measure;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Hash of the configuration's behaviour-relevant fields (manifest entry).
std::uint64_t config_hash(const core::ExperimentConfig& config);

/// Digest of a run's modelled outputs: RunSummary, ClientTotals, aggregate
/// ServerStats, RackStats and the per-tenant rows.
std::uint64_t model_digest(const core::ExperimentResult& result);

/// Recorded digest for (workload, seed), or 0 when none is stored.
std::uint64_t golden_digest(const std::string& workload, std::uint64_t seed);

/// The correctness gate for one modelled run; returns the failures found
/// (empty = correct): conservation, globally and per tenant, and the model
/// digest against `expected_digest` (0 = none), named by `expectation`.
std::vector<std::string> check_run(const core::ExperimentResult& result,
                                   std::uint64_t expected_digest,
                                   const std::string& expectation);

/// Outcome of a pass: metrics for the result line plus the gate's verdict.
struct PassResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t digest = 0;

  /// Counts one checked operation, failed if `run_failures` is non-empty.
  void record(std::vector<std::string> run_failures) {
    ++attempted;
    if (run_failures.empty()) return;
    ++failed;
    for (auto& f : run_failures) failures.push_back(std::move(f));
  }
};

/// Untraced end-to-end pass: warm-up, timed runs for `seconds`, set-up
/// repetitions, modelled metrics.
PassResult run_end_to_end(const Workload& workload, std::uint64_t seed,
                          double seconds);

/// Traced per-layer pass: layer kernels, counts per request, captured spans,
/// shard speedups and the attribution of host time per request.
PassResult run_per_layer(const Workload& workload, std::uint64_t seed,
                         double seconds);

}  // namespace nicsched::perfbench
