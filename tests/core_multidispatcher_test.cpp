// Multi-dispatcher Shinjuku (§2.2 problem 3).
#include <gtest/gtest.h>

#include <memory>

#include "core/shinjuku_server.h"
#include "core/testbed.h"
#include "fault/fault_schedule.h"

namespace nicsched::core {
namespace {

TEST(MultiDispatcher, ValidatesGroupCount) {
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);

  HostSpec spec;
  spec.system = SystemKind::kShinjuku;
  spec.worker_count = 4;
  spec.dispatcher_count = 0;
  spec.params = params;
  EXPECT_THROW(ShinjukuServer(sim, network, spec), std::invalid_argument);
  spec.dispatcher_count = 5;  // more dispatchers than workers
  EXPECT_THROW(ShinjukuServer(sim, network, spec), std::invalid_argument);
}

TEST(MultiDispatcher, PartitionsWorkersRoundRobin) {
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);

  HostSpec spec;
  spec.system = SystemKind::kShinjuku;
  spec.worker_count = 7;
  spec.dispatcher_count = 3;
  spec.params = params;
  ShinjukuServer server(sim, network, spec);
  ASSERT_EQ(server.group_count(), 3u);
  EXPECT_EQ(server.core_status(0).worker_count(), 3u);
  EXPECT_EQ(server.core_status(1).worker_count(), 2u);
  EXPECT_EQ(server.core_status(2).worker_count(), 2u);
}

TEST(MultiDispatcher, ConservesRequestsAcrossGroups) {
  ExperimentConfig config;
  config.system = SystemKind::kShinjuku;
  config.worker_count = 8;
  config.dispatcher_count = 4;
  config.service = std::make_shared<workload::FixedDistribution>(
      sim::Duration::micros(5));
  config.offered_rps = 300e3;
  config.measure = sim::Duration::millis(25);
  config.drain = sim::Duration::millis(5);
  const auto result = run_experiment(config);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  EXPECT_EQ(result.server.drops, 0u);
  EXPECT_EQ(result.server.worker_utilization.size(), 8u);
}

TEST(MultiDispatcher, SecondDispatcherLiftsTheOneMicrosecondCeiling) {
  ExperimentConfig config;
  config.system = SystemKind::kShinjuku;
  config.worker_count = 30;
  config.preemption_enabled = false;
  config.service = std::make_shared<workload::FixedDistribution>(
      sim::Duration::micros(1));
  config.offered_rps = 6.0e6;  // above one dispatcher's ~4.3 MRPS ceiling
  config.measure = sim::Duration::millis(20);

  config.dispatcher_count = 1;
  const auto one = run_experiment(config);
  config.dispatcher_count = 2;
  const auto two = run_experiment(config);

  EXPECT_LT(one.summary.achieved_rps, 0.8 * config.offered_rps);
  EXPECT_GT(two.summary.achieved_rps, 0.95 * config.offered_rps);
}

TEST(MultiDispatcher, PreemptionStillWorksPerGroup) {
  ExperimentConfig config;
  config.system = SystemKind::kShinjuku;
  config.worker_count = 8;
  config.dispatcher_count = 2;
  config.time_slice = sim::Duration::micros(10);
  config.service = std::make_shared<workload::BimodalDistribution>(
      sim::Duration::micros(5), sim::Duration::micros(100), 0.05);
  config.offered_rps = 500e3;
  config.measure = sim::Duration::millis(25);
  config.drain = sim::Duration::millis(10);
  const auto result = run_experiment(config);
  EXPECT_GT(result.server.preemptions, 0u);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
}

TEST(MultiDispatcher, PreemptionOffMeansNoPreemptions) {
  // Fig. 5's Shinjuku point near its knee: every worker busy with a 100 us
  // request when the next one arrives. With preemption off, an arrival must
  // never preempt a worker that is past its slice.
  for (const std::size_t dispatchers : {1u, 2u}) {
    ExperimentConfig config = ExperimentConfig::of(SystemKind::kShinjuku)
                                  .workers(15)
                                  .dispatchers(dispatchers)
                                  .fixed(sim::Duration::micros(100))
                                  .no_preemption()
                                  .load(140e3)
                                  .measure_for(sim::Duration::millis(20));
    const auto result = run_experiment(config);
    EXPECT_GT(result.server.responses_sent, 0u);
    EXPECT_EQ(result.server.preemptions, 0u)
        << "dispatcher_count=" << dispatchers;
  }
}

TEST(MultiDispatcher, PerWorkerRowsFollowGlobalWorkerOrder) {
  // Workers are placed round-robin (worker w sits in group w % 2), and a
  // FaultSchedule names them by that global index. The per-worker rows must
  // use the same order, so row 1 is the crashed worker 1 — not worker 2,
  // which a group-major listing would put there.
  ExperimentConfig config;
  config.system = SystemKind::kShinjuku;
  config.worker_count = 4;
  config.dispatcher_count = 2;
  config.service = std::make_shared<workload::FixedDistribution>(
      sim::Duration::micros(5));
  config.offered_rps = 200e3;
  config.measure = sim::Duration::millis(5);
  config.with_faults(
      fault::FaultSchedule{}.crash_worker(sim::TimePoint::origin(), 1));
  const auto result = run_experiment(config);
  const auto& utilization = result.server.worker_utilization;
  ASSERT_EQ(utilization.size(), 4u);
  EXPECT_EQ(utilization[1], 0.0);
  EXPECT_GT(utilization[0], 0.0);
  EXPECT_GT(utilization[2], 0.0);
  EXPECT_GT(utilization[3], 0.0);
}

}  // namespace
}  // namespace nicsched::core
