// Rain acceptance (DESIGN §15): the RDMA-assisted dispatch family is
// deterministic, conserves every request under composed overload + tenants
// + faults, degrades PR 3 reliable dispatch onto doorbell/CQ semantics
// (crash → watchdog → re-steer; the channel itself never drops), and the
// feedback-staleness knob is inert unless adaptive-K consumes it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "fault/fault_schedule.h"
#include "overload/overload.h"

namespace nicsched {
namespace {

core::ExperimentConfig base_config(std::uint64_t seed) {
  return core::ExperimentConfig::rain()
      .workers(4)
      .outstanding(2)
      .fixed(sim::Duration::micros(2))
      .load(200e3)
      .samples(10'000)
      .with_seed(seed);
}

void expect_conserved(const core::ExperimentResult::ClientTotals& t) {
  EXPECT_EQ(t.sent, t.completed + t.rejected + t.expired + t.abandoned +
                        t.outstanding);
}

void expect_equal_runs(const core::ExperimentResult& a,
                       const core::ExperimentResult& b) {
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_DOUBLE_EQ(a.summary.p50_us, b.summary.p50_us);
  EXPECT_DOUBLE_EQ(a.summary.p99_us, b.summary.p99_us);
  EXPECT_DOUBLE_EQ(a.summary.achieved_rps, b.summary.achieved_rps);
  EXPECT_EQ(a.server.requests_received, b.server.requests_received);
  EXPECT_EQ(a.server.responses_sent, b.server.responses_sent);
  EXPECT_EQ(a.server.preemptions, b.server.preemptions);
  EXPECT_EQ(a.server.reliability.retransmits, b.server.reliability.retransmits);
  EXPECT_EQ(a.server.reliability.redispatched,
            b.server.reliability.redispatched);
  EXPECT_EQ(a.server.overload.rejected, b.server.overload.rejected);
  EXPECT_EQ(a.server.overload.k_shrinks, b.server.overload.k_shrinks);
}

std::vector<std::uint64_t> seeds() {
  if (std::getenv("NICSCHED_FAST") != nullptr) return {1};
  return {1, 2, 3};
}

TEST(CoreRain, RepeatedRunsAreBitIdentical) {
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    overload::OverloadParams informed;
    informed.enabled = true;
    const auto config = base_config(seed).with_overload(informed).reliable(
        true);
    const auto a = core::run_experiment(config);
    const auto b = core::run_experiment(config);
    ASSERT_GT(a.summary.completed, 1'000u);
    expect_equal_runs(a, b);
    expect_conserved(a.clients);
  }
}

TEST(CoreRain, FeedbackStalenessIsInertWithoutAdaptiveK) {
  // The staleness knob only delays the adaptive-K fold; with overload off
  // the sojourn samples are never produced, so any staleness value must be
  // byte-identical to zero — the default-off discipline every knob follows.
  const auto fresh = core::run_experiment(base_config(7));
  const auto stale = core::run_experiment(
      base_config(7).with_feedback_staleness(sim::Duration::micros(500)));
  expect_equal_runs(fresh, stale);
}

TEST(CoreRain, FeedbackStalenessDelaysTheAdaptiveKReaction) {
  // Repeated 300 us stalls back up one worker; its sojourn samples drive the
  // adaptive-K governor. The knob must keep the loop working at any age
  // (graceful degradation) — and a fresh loop never shrinks later than a
  // stale one within the same run length.
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    overload::OverloadParams informed;
    informed.enabled = true;
    fault::FaultSchedule stalls;
    for (int i = 0; i < 4; ++i) {
      stalls.stall_worker(
          sim::TimePoint::origin() + sim::Duration::millis(10 + i), 0,
          sim::Duration::micros(300));
    }
    const auto base = core::ExperimentConfig::rain()
                          .workers(4)
                          .outstanding(4)
                          .fixed_5us()
                          .load(600e3)
                          .samples(10'000)
                          .with_seed(seed)
                          .with_overload(informed)
                          .with_faults(stalls);
    const auto fresh = core::run_experiment(base);
    const auto stale = core::run_experiment(
        core::ExperimentConfig(base).with_feedback_staleness(
            sim::Duration::micros(100)));
    EXPECT_GT(fresh.server.overload.k_shrinks, 0u)
        << "the stall backlog never tripped the sojourn governor";
    EXPECT_GT(stale.server.overload.k_shrinks, 0u)
        << "stale feedback must delay the governor, not disable it";
    expect_conserved(fresh.clients);
    expect_conserved(stale.clients);
  }
}

TEST(CoreRain, ReliableDispatchReSteersACrashedWorker) {
  // PR 3 semantics degraded onto the CQ: a crashed worker stops posting
  // CQEs, the completion watchdog declares it dead, and everything it held
  // re-steers through the central queue. Nothing is lost — the run keeps
  // completing on the surviving workers and the ledger balances.
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fault::FaultSchedule faults;
    faults.crash_worker(sim::TimePoint::origin() + sim::Duration::millis(5),
                        1);
    const auto result = core::run_experiment(
        base_config(seed).reliable(true).with_faults(faults));
    ASSERT_GT(result.summary.completed, 1'000u);
    EXPECT_GT(result.server.reliability.worker_deaths, 0u)
        << "the silent worker was never declared dead";
    EXPECT_GT(result.server.reliability.redispatched, 0u)
        << "the dead worker's inflight requests were not re-steered";
    // Client-side ledger: issued == answered + accounted-lost.
    const auto& t = result.clients;
    EXPECT_EQ(t.sent, t.completed + t.rejected + t.expired + t.abandoned +
                          t.outstanding);
  }
}

TEST(CoreRain, DispatchLossWindowsAreANoOpOnTheLosslessChannel) {
  // UDP dispatch loses frames; a one-sided RDMA write cannot. A certain-loss
  // dispatch window must leave a rain run byte-identical to the fault-free
  // run — inject_dispatch_loss is documented as a no-op for servers whose
  // dispatch does not cross a lossy fabric.
  const auto clean = core::run_experiment(base_config(3).reliable(true));
  fault::FaultSchedule losses;
  losses.dispatch_loss(sim::TimePoint::origin() + sim::Duration::millis(2),
                       sim::TimePoint::origin() + sim::Duration::millis(40),
                       1.0);
  const auto lossy = core::run_experiment(
      base_config(3).reliable(true).with_faults(losses));
  expect_equal_runs(clean, lossy);
  EXPECT_EQ(lossy.server.reliability.retransmits, 0u);
  EXPECT_EQ(lossy.server.reliability.abandoned, 0u);
}

TEST(CoreRain, ComposedOverloadTenantsAndFaultsConserve) {
  // The §15 acceptance shape: overload control + two tenant lanes + a timed
  // worker stall, all active in one reliable rain run, across seeds. The
  // per-tenant ledgers conserve and sum to the global totals.
  for (const std::uint64_t seed : seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    overload::OverloadParams informed;
    informed.enabled = true;
    fault::FaultSchedule faults;
    faults.stall_worker(sim::TimePoint::origin() + sim::Duration::millis(8),
                        2, sim::Duration::micros(400));
    auto config =
        core::ExperimentConfig::rain()
            .workers(4)
            .outstanding(2)
            .load(300e3)
            .clients(2, 16)
            .measure_for(sim::Duration::millis(4))
            .with_seed(seed)
            .reliable(true)
            .with_overload(informed)
            .with_faults(faults)
            .with_tenants(
                {tenant::make_tenant(1).named("gold").weighted(4.0).fixed(
                     sim::Duration::micros(4)),
                 tenant::make_tenant(2).named("batch").fixed(
                     sim::Duration::micros(8))});
    config.drain = sim::Duration::millis(2);  // long drain -> quiescence
    const auto result = core::run_experiment(config);
    ASSERT_EQ(result.tenants.size(), 2u);
    core::ExperimentResult::ClientTotals sum;
    for (const auto& row : result.tenants) {
      expect_conserved(row.clients);
      EXPECT_GT(row.clients.sent, 0u);
      sum.sent += row.clients.sent;
      sum.completed += row.clients.completed;
      sum.rejected += row.clients.rejected;
      sum.expired += row.clients.expired;
      sum.abandoned += row.clients.abandoned;
      sum.outstanding += row.clients.outstanding;
    }
    expect_conserved(result.clients);
    EXPECT_EQ(sum.sent, result.clients.sent);
    EXPECT_EQ(sum.completed, result.clients.completed);
  }
}

}  // namespace
}  // namespace nicsched
