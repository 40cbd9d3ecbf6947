// Configuration-matrix conservation tests: every (system × queue policy ×
// placement × timer) combination the library supports must conserve
// requests under preemption churn. These are the invariants that make every
// other measurement trustworthy.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/testbed.h"

namespace nicsched::core {
namespace {

ExperimentConfig churny_base() {
  ExperimentConfig config;
  config.worker_count = 4;
  config.outstanding_per_worker = 3;
  config.time_slice = sim::Duration::micros(10);
  config.service = std::make_shared<workload::BimodalDistribution>(
      sim::Duration::micros(5), sim::Duration::micros(100), 0.05);
  config.offered_rps = 250e3;
  config.measure = sim::Duration::millis(20);
  config.drain = sim::Duration::millis(10);
  return config;
}

using PolicyMatrixParam = std::tuple<SystemKind, QueuePolicy>;

class PolicyMatrix : public ::testing::TestWithParam<PolicyMatrixParam> {};

TEST_P(PolicyMatrix, ConservesUnderPreemptionChurn) {
  ExperimentConfig config = churny_base();
  config.system = std::get<0>(GetParam());
  config.queue_policy = std::get<1>(GetParam());
  const auto result = run_experiment(config);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  EXPECT_EQ(result.server.drops, 0u);
  EXPECT_GT(result.server.preemptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsByPolicies, PolicyMatrix,
    ::testing::Combine(::testing::Values(SystemKind::kShinjuku,
                                         SystemKind::kShinjukuOffload,
                                         SystemKind::kIdealNic,
                                         SystemKind::kRain),
                       ::testing::Values(QueuePolicy::kFcfs, QueuePolicy::kSjf,
                                         QueuePolicy::kMultiClass,
                                         QueuePolicy::kBvt)),
    [](const ::testing::TestParamInfo<PolicyMatrixParam>& param_info) {
      std::string name =
          std::string(to_string(std::get<0>(param_info.param))) + "_" +
          to_string(std::get<1>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class PlacementMatrix
    : public ::testing::TestWithParam<hw::PlacementPolicy> {};

TEST_P(PlacementMatrix, OffloadConservesUnderEveryPlacement) {
  ExperimentConfig config = churny_base();
  config.system = SystemKind::kShinjukuOffload;
  config.placement = GetParam();
  const auto result = run_experiment(config);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  // Every request's payload was touched exactly once per (re)start; with
  // preemptions, touches >= requests.
  EXPECT_GE(result.server.ddio.total(), result.server.requests_received);
}

INSTANTIATE_TEST_SUITE_P(Placements, PlacementMatrix,
                         ::testing::Values(hw::PlacementPolicy::kDram,
                                           hw::PlacementPolicy::kDdioLlc,
                                           hw::PlacementPolicy::kDdioL1),
                         [](const auto& param_info) {
                           std::string name = hw::to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ConfigMatrix, LinuxTimerModeConservesAndCostsMore) {
  ExperimentConfig config = churny_base();
  config.system = SystemKind::kShinjukuOffload;
  config.timer_costs = hw::TimerCosts::dune();
  const auto dune = run_experiment(config);
  config.timer_costs = hw::TimerCosts::linux_signal();
  const auto linux_mode = run_experiment(config);

  EXPECT_EQ(linux_mode.summary.completed, linux_mode.summary.issued);
  // Same workload and seed → same preemption pattern, but each preemption
  // costs ~3k extra cycles, so mean latency is strictly worse.
  EXPECT_GT(linux_mode.summary.mean_us, dune.summary.mean_us);
}

TEST(ConfigMatrix, TxBatchingConservesAndAddsLatency) {
  ExperimentConfig config = churny_base();
  config.system = SystemKind::kShinjukuOffload;
  const auto unbatched = run_experiment(config);
  config.tx_batch_frames = 8;
  config.tx_batch_timeout = sim::Duration::micros(6);
  const auto batched = run_experiment(config);

  EXPECT_EQ(batched.summary.completed, batched.summary.issued);
  EXPECT_EQ(batched.server.drops, 0u);
  EXPECT_GT(batched.summary.p50_us, unbatched.summary.p50_us + 2.0);
}

TEST(ConfigMatrix, MultiDispatcherWithPoliciesConserves) {
  ExperimentConfig config = churny_base();
  config.system = SystemKind::kShinjuku;
  config.worker_count = 6;
  config.dispatcher_count = 2;
  config.queue_policy = QueuePolicy::kSjf;
  const auto result = run_experiment(config);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  EXPECT_EQ(result.server.drops, 0u);
}

}  // namespace
}  // namespace nicsched::core
