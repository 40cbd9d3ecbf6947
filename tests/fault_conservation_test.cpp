// Fault-injection invariant: no request is ever silently lost. Under a
// randomized schedule of ingress loss, link degradation, worker stalls and
// (for reliable dispatch) dispatcher↔worker frame loss, every request a
// client issued must be accounted for exactly once:
//
//   sent == received + ingress_wire_lost + server_drops + abandoned
//
// with the sim fully quiesced (no queued or in-flight work left). The
// wiring is deliberately manual — the test needs the client's sent/
// received/duplicate counters and the switch's per-port loss counters,
// which the run_experiment harness does not expose.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/testbed.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"
#include "net/ethernet_switch.h"
#include "overload/overload.h"
#include "sim/simulator.h"
#include "tenant/tenant.h"
#include "workload/arrival.h"
#include "workload/client.h"

namespace nicsched {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::millis(ms);
}

struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t ingress_lost = 0;  // requests dropped on the server's wire
  core::ServerStats stats;
  core::ServerTelemetry telemetry;
};

/// Builds network + server + one client, installs `schedule` through the
/// cluster's fault surface, issues load until `issue_until`, and runs the
/// sim to `run_until` (run_until, not run(): a crashed worker's retransmit
/// or slice-check timers may legitimately re-arm forever).
Outcome run_faulted(const core::ExperimentConfig& config,
                    const fault::FaultSchedule& schedule,
                    std::uint64_t client_seed, sim::TimePoint issue_until,
                    sim::TimePoint run_until) {
  sim::Simulator sim;
  core::ClusterBuilder topology(sim);
  topology.switch_latency(config.params.switch_forward_latency);
  topology.add_host(core::HostSpec::from_config(config));
  core::Cluster cluster = topology.build();
  net::EthernetSwitch& network = cluster.client_network();
  core::Server* server = &cluster.server();

  workload::ClientMachine::Config client_config;
  client_config.client_id = 1;
  client_config.mac = net::MacAddress::from_index(1);
  client_config.ip = net::Ipv4Address::from_index(1);
  client_config.server_mac = server->ingress_mac();
  client_config.server_ip = server->ingress_ip();
  client_config.server_port = server->port();
  workload::ClientMachine client(
      sim, network, client_config, config.service,
      std::make_unique<workload::PoissonArrivals>(config.offered_rps),
      sim::Rng(client_seed));

  EXPECT_NE(server->fault_surface(), nullptr) << server->name();
  fault::FaultInjector injector(cluster, schedule);

  client.start(issue_until);
  sim.run_until(run_until);

  Outcome out;
  out.sent = client.sent();
  out.received = client.received();
  out.duplicates = client.duplicates();
  out.ingress_lost = network.port_stats(server->ingress_mac()).lost;
  out.stats = server->stats(run_until - sim::TimePoint::origin());
  out.telemetry = server->telemetry();
  return out;
}

void expect_conserved(const Outcome& out) {
  // Quiesced: nothing waiting, nothing believed in flight.
  EXPECT_EQ(out.telemetry.queue_depth, 0u);
  EXPECT_EQ(out.telemetry.outstanding, 0u);
  // Every response the server sent reached the client exactly once; extra
  // executions of a re-steered request surface as client-side duplicates.
  EXPECT_EQ(out.stats.responses_sent, out.received + out.duplicates);
  // Every parsed request was answered or explicitly abandoned.
  EXPECT_EQ(out.stats.requests_received,
            out.received + out.stats.reliability.abandoned);
  // The headline identity: issued == answered + accounted-lost.
  EXPECT_EQ(out.sent, out.received + out.ingress_lost + out.stats.drops +
                          out.stats.reliability.abandoned);
}

struct KindCase {
  core::SystemKind kind;
  bool reliable;  // shinjuku kinds exercise DESIGN §9 reliable dispatch
};

TEST(FaultConservation, RandomizedSchedulesConserveEveryRequest) {
  const KindCase cases[] = {
      {core::SystemKind::kShinjuku, true},
      {core::SystemKind::kShinjukuOffload, true},
      {core::SystemKind::kRss, false},
      {core::SystemKind::kIdealNic, false},
      // Reliable dispatch degraded onto the RDMA doorbell/CQ path (§15).
      {core::SystemKind::kRain, true},
  };
  // The smoke tier (NICSCHED_FAST=1) keeps one seed per kind; the full fault
  // tier runs three.
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (std::getenv("NICSCHED_FAST") != nullptr) seeds = {1};

  for (const KindCase& c : cases) {
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(std::string(core::to_string(c.kind)) + " seed " +
                   std::to_string(seed));
      auto config = core::ExperimentConfig::of(c.kind)
                        .workers(4)
                        .outstanding(2)
                        .fixed(sim::Duration::micros(2))
                        .load(200e3)
                        .reliable(c.reliable);
      // Faults over [1 ms, 9 ms); randomized stalls are timed (≤ 10 % of
      // the span) so the run quiesces well before the 30 ms horizon. A
      // stall can exceed the 500 µs completion timeout, which is the point:
      // spurious deaths must re-steer without losing or double-counting.
      const auto schedule = fault::FaultSchedule::randomized(
          seed, 4, at_ms(1), at_ms(9), c.reliable);
      const Outcome out =
          run_faulted(config, schedule, seed + 100, at_ms(12), at_ms(30));
      ASSERT_GT(out.sent, 1000u);
      expect_conserved(out);
    }
  }
}

TEST(FaultConservation, OffloadCompletesNearlyAllUnderOnePercentUplinkLoss) {
  // ISSUE acceptance: with 1 % loss on the dispatcher↔worker path, reliable
  // dispatch recovers ≥ 99.9 % of requests via retransmission.
  auto config = core::ExperimentConfig::offload()
                    .workers(4)
                    .outstanding(2)
                    .fixed(sim::Duration::micros(2))
                    .load(200e3)
                    .reliable();
  fault::FaultSchedule schedule;
  schedule.with_seed(7).dispatch_loss(at_ms(0), at_ms(40), 0.01);

  const Outcome out = run_faulted(config, schedule, 7, at_ms(20), at_ms(60));
  ASSERT_GT(out.sent, 3000u);
  EXPECT_EQ(out.ingress_lost, 0u);  // only the dispatch path is lossy
  EXPECT_GE(out.received * 1000, out.sent * 999);
  EXPECT_GT(out.stats.reliability.retransmits +
                out.stats.reliability.note_retransmits,
            0u)
      << "loss never exercised the retransmit path";
  expect_conserved(out);
}

TEST(FaultConservation, OffloadReSteersInFlightWorkOffACrashedWorker) {
  // A worker that crashes and never resumes: its in-flight assignments must
  // be re-steered to the survivor and every request still completes.
  auto config = core::ExperimentConfig::offload()
                    .workers(2)
                    .outstanding(2)
                    .fixed(sim::Duration::micros(10))
                    .load(120e3)
                    .reliable();
  fault::FaultSchedule schedule;
  schedule.crash_worker(at_ms(2), 0);

  const Outcome out = run_faulted(config, schedule, 5, at_ms(8), at_ms(40));
  ASSERT_GT(out.sent, 500u);
  EXPECT_GE(out.stats.reliability.worker_deaths, 1u);
  EXPECT_GE(out.stats.reliability.redispatched, 1u);
  EXPECT_EQ(out.received, out.sent);  // nothing lost despite the crash
  expect_conserved(out);
}

TEST(FaultConservation, ShinjukuLivenessWatchdogReSteersOffACrashedWorker) {
  // Same crash for host Shinjuku: cache-line IPC is lossless, so the only
  // reliable-dispatch machinery in play is the completion-timeout watchdog.
  auto config = core::ExperimentConfig::shinjuku()
                    .workers(2)
                    .fixed(sim::Duration::micros(10))
                    .load(120e3)
                    .reliable();
  fault::FaultSchedule schedule;
  schedule.crash_worker(at_ms(2), 0);

  const Outcome out = run_faulted(config, schedule, 5, at_ms(8), at_ms(40));
  ASSERT_GT(out.sent, 500u);
  EXPECT_GE(out.stats.reliability.worker_deaths, 1u);
  EXPECT_EQ(out.received, out.sent);
  expect_conserved(out);
}

// DESIGN §14: the conservation ledger is shard-count-invariant. A faulted,
// overloaded, multi-tenant rack run must satisfy the client-side identity
//
//   sent == completed + rejected + expired + abandoned + outstanding
//
// at every shard count, per tenant and globally, and the parallel engine's
// ledger must match the serial engine field for field — a shard that lost a
// mailbox flush or double-delivered a cross-shard frame shows up here even
// if latency digests happen to collide.
TEST(FaultConservation, MultiShardRackRunsConserveAndMatchSerial) {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (std::getenv("NICSCHED_FAST") != nullptr) seeds = {1};

  overload::OverloadParams overload;
  overload.enabled = true;
  overload.admission_enabled = true;
  overload.shedding_enabled = true;
  overload.deadline = sim::Duration::micros(300);
  overload.retry_budget = 0;

  for (const std::uint64_t seed : seeds) {
    std::optional<core::ExperimentResult::ClientTotals> serial;
    std::optional<core::ServerStats> serial_server;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      const std::string label = "seed=" + std::to_string(seed) +
                                " shards=" + std::to_string(shards);
      SCOPED_TRACE(label);
      fault::FaultSchedule schedule;
      schedule.with_seed(seed * 31 + 7)
          .ingress_loss(at_ms(1), at_ms(2), 0.02)
          .stall_worker(at_ms(1), 0, sim::Duration::micros(200));
      auto config = core::ExperimentConfig::offload()
                        .workers(2)
                        .outstanding(2)
                        .load(400e3)
                        .clients(2, 16)
                        .measure_for(sim::Duration::millis(1))
                        .with_seed(seed)
                        .with_rack(4)
                        .with_overload(overload)
                        .with_tenants({
                            tenant::make_tenant(1)
                                .named("gold")
                                .weighted(4.0)
                                .slo_class(tenant::SloClass::kLatencyCritical)
                                .fixed(sim::Duration::micros(4)),
                            tenant::make_tenant(2)
                                .named("batch")
                                .slo_class(tenant::SloClass::kBestEffort)
                                .bimodal(sim::Duration::micros(5),
                                         sim::Duration::micros(100), 0.005),
                        })
                        .with_shards(shards)
                        .with_faults(schedule);
      config.warmup = sim::Duration::millis(1);
      config.drain = sim::Duration::millis(2);

      const auto result = core::run_experiment(config);
      const auto& totals = result.clients;
      ASSERT_GT(totals.sent, 500u);
      EXPECT_EQ(totals.sent, totals.completed + totals.rejected +
                                 totals.expired + totals.abandoned +
                                 totals.outstanding);

      // Per-tenant rows conserve individually and sum to the global ledger.
      ASSERT_EQ(result.tenants.size(), 2u);
      core::ExperimentResult::ClientTotals sum;
      for (const auto& row : result.tenants) {
        EXPECT_EQ(row.clients.sent,
                  row.clients.completed + row.clients.rejected +
                      row.clients.expired + row.clients.abandoned +
                      row.clients.outstanding)
            << "tenant " << row.spec.label();
        sum.sent += row.clients.sent;
        sum.completed += row.clients.completed;
        sum.rejected += row.clients.rejected;
        sum.expired += row.clients.expired;
        sum.abandoned += row.clients.abandoned;
        sum.outstanding += row.clients.outstanding;
      }
      EXPECT_EQ(sum.sent, totals.sent);
      EXPECT_EQ(sum.completed, totals.completed);

      if (!serial) {
        serial = totals;
        serial_server = result.server;
        continue;
      }
      // Field-for-field match with the serial engine.
      EXPECT_EQ(totals.sent, serial->sent);
      EXPECT_EQ(totals.completed, serial->completed);
      EXPECT_EQ(totals.goodput, serial->goodput);
      EXPECT_EQ(totals.rejected, serial->rejected);
      EXPECT_EQ(totals.expired, serial->expired);
      EXPECT_EQ(totals.abandoned, serial->abandoned);
      EXPECT_EQ(totals.outstanding, serial->outstanding);
      EXPECT_EQ(totals.retries, serial->retries);
      EXPECT_EQ(totals.duplicates, serial->duplicates);
      EXPECT_EQ(result.server.requests_received,
                serial_server->requests_received);
      EXPECT_EQ(result.server.responses_sent, serial_server->responses_sent);
      EXPECT_EQ(result.server.drops, serial_server->drops);
      EXPECT_EQ(result.server.overload.rejected,
                serial_server->overload.rejected);
    }
  }
}

TEST(FaultConservation, IngressLossIsChargedToTheWireNotTheServer) {
  // Pure ingress loss on an unreliable system: the gap between sent and
  // received must be exactly the wire's loss counter.
  auto config = core::ExperimentConfig::rss()
                    .workers(4)
                    .fixed(sim::Duration::micros(2))
                    .load(200e3);
  fault::FaultSchedule schedule;
  schedule.with_seed(3).ingress_loss(at_ms(0), at_ms(20), 0.05);

  const Outcome out = run_faulted(config, schedule, 11, at_ms(10), at_ms(30));
  ASSERT_GT(out.sent, 1000u);
  EXPECT_GT(out.ingress_lost, 0u);
  EXPECT_EQ(out.duplicates, 0u);  // no reliability machinery, no re-execution
  expect_conserved(out);
}

}  // namespace
}  // namespace nicsched
