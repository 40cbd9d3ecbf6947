// The exp layer's three contracts:
//   1. SweepRunner's parallel fan-out is bit-identical to the serial
//      core::run_sweep reference path — every RunSummary field, not just
//      the headline quantiles.
//   2. JSON and CSV exports round-trip every row field losslessly.
//   3. SystemKind's from_string round-trips to_string for every kind.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "exp/exp.h"

namespace nicsched {
namespace {

core::ExperimentConfig small_config() {
  return core::ExperimentConfig::offload()
      .workers(2)
      .outstanding(2)
      .slice(sim::Duration::micros(10))
      .bimodal()
      .samples(2'000)
      .with_seed(7);
}

void expect_summary_identical(const stats::RunSummary& a,
                              const stats::RunSummary& b) {
  EXPECT_EQ(a.offered_rps, b.offered_rps);
  EXPECT_EQ(a.achieved_rps, b.achieved_rps);
  EXPECT_EQ(a.issued, b.issued);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_us, b.mean_us);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p90_us, b.p90_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.p999_us, b.p999_us);
  EXPECT_EQ(a.max_us, b.max_us);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
}

void expect_row_identical(const exp::ResultRow& a, const exp::ResultRow& b) {
  EXPECT_EQ(a.series, b.series);
  expect_summary_identical(a.summary, b.summary);
  EXPECT_EQ(a.server.requests_received, b.server.requests_received);
  EXPECT_EQ(a.server.responses_sent, b.server.responses_sent);
  EXPECT_EQ(a.server.preemptions, b.server.preemptions);
  EXPECT_EQ(a.server.spurious_interrupts, b.server.spurious_interrupts);
  EXPECT_EQ(a.server.steals, b.server.steals);
  EXPECT_EQ(a.server.drops, b.server.drops);
  EXPECT_EQ(a.server.queue_max_depth, b.server.queue_max_depth);
  EXPECT_EQ(a.server.worker_utilization, b.server.worker_utilization);
  EXPECT_EQ(a.server.ddio.l1_touches, b.server.ddio.l1_touches);
  EXPECT_EQ(a.server.ddio.llc_touches, b.server.ddio.llc_touches);
  EXPECT_EQ(a.server.ddio.dram_touches, b.server.ddio.dram_touches);
  EXPECT_EQ(a.server.reliability.retransmits, b.server.reliability.retransmits);
  EXPECT_EQ(a.server.reliability.note_retransmits,
            b.server.reliability.note_retransmits);
  EXPECT_EQ(a.server.reliability.timeouts, b.server.reliability.timeouts);
  EXPECT_EQ(a.server.reliability.redispatched,
            b.server.reliability.redispatched);
  EXPECT_EQ(a.server.reliability.abandoned, b.server.reliability.abandoned);
  EXPECT_EQ(a.server.reliability.duplicates, b.server.reliability.duplicates);
  EXPECT_EQ(a.server.reliability.worker_deaths,
            b.server.reliability.worker_deaths);
  EXPECT_EQ(a.server.reliability.revivals, b.server.reliability.revivals);
  EXPECT_EQ(a.server.overload.admitted, b.server.overload.admitted);
  EXPECT_EQ(a.server.overload.rejected, b.server.overload.rejected);
  EXPECT_EQ(a.server.overload.shed_expired, b.server.overload.shed_expired);
  EXPECT_EQ(a.server.overload.k_shrinks, b.server.overload.k_shrinks);
  EXPECT_EQ(a.server.overload.k_restores, b.server.overload.k_restores);
  EXPECT_EQ(a.server.tenants, b.server.tenants);
  EXPECT_EQ(a.mean_worker_utilization, b.mean_worker_utilization);
}

void expect_rack_aggregates_identical(const rack::RackStats& a,
                                      const rack::RackStats& b) {
  EXPECT_EQ(a.requests_forwarded, b.requests_forwarded);
  EXPECT_EQ(a.responses_forwarded, b.responses_forwarded);
  EXPECT_EQ(a.rejects_forwarded, b.rejects_forwarded);
  EXPECT_EQ(a.other_forwarded, b.other_forwarded);
  EXPECT_EQ(a.malformed_dropped, b.malformed_dropped);
  EXPECT_EQ(a.affinity_hits, b.affinity_hits);
  EXPECT_EQ(a.affinity_expired, b.affinity_expired);
  EXPECT_EQ(a.unknown_responses, b.unknown_responses);
  EXPECT_EQ(a.informed_decisions, b.informed_decisions);
  EXPECT_EQ(a.stale_decisions, b.stale_decisions);
  EXPECT_EQ(a.feedback_samples, b.feedback_samples);
  EXPECT_EQ(a.feedback_discarded_dead, b.feedback_discarded_dead);
  EXPECT_EQ(a.hosts.size(), b.hosts.size());
}

exp::ResultRow rack_row() {
  exp::ResultRow row;
  row.series = "rack p2c";
  row.summary.offered_rps = 1.2e6;
  row.summary.completed = 50'000;
  rack::RackStats rack_stats;
  rack_stats.requests_forwarded = 50'100;
  rack_stats.responses_forwarded = 50'000;
  rack_stats.rejects_forwarded = 40;
  rack_stats.other_forwarded = 3;
  rack_stats.malformed_dropped = 1;
  rack_stats.affinity_hits = 27;
  rack_stats.affinity_expired = 4;
  rack_stats.unknown_responses = 2;
  rack_stats.informed_decisions = 49'000;
  rack_stats.stale_decisions = 1'100;
  rack_stats.feedback_samples = 50'000;
  rack_stats.feedback_discarded_dead = 9;
  rack::RackHostStats host;
  host.requests = 12'525;
  host.responses = 12'500;
  host.rejects = 10;
  host.outstanding = 15;
  host.deaths = 1;
  host.revivals = 1;
  host.resets = 2;
  host.feedback_discarded = 9;
  host.sojourn_ewma_us = 7.0 / 3.0;  // non-terminating binary fraction
  host.queue_depth = 6;
  rack::RackTenantStats slice;
  slice.tenant = 3;
  slice.requests = 12'000;
  slice.responses = 11'990;
  slice.rejects = 4;
  slice.outstanding = 6;
  host.tenants = {slice};
  rack_stats.hosts.assign(4, host);
  rack::RackTenantStats total = slice;
  total.requests *= 4;
  total.responses *= 4;
  total.rejects *= 4;
  total.outstanding *= 4;
  rack_stats.tenants = {total};
  row.rack = std::move(rack_stats);
  return row;
}

TEST(SweepRunner, ParallelMatchesSerialBitForBit) {
  const auto base = small_config();
  const auto loads = exp::load_grid(50e3, 250e3, 5);

  // Serial reference: the core primitive, one point at a time.
  std::vector<stats::RunSummary> serial;
  for (const double load : loads) {
    auto config = core::ExperimentConfig(base).load(load);
    serial.push_back(core::run_experiment(config).summary);
  }

  // Forced-parallel runner: more threads than points, so any scheduling or
  // ordering dependence would scramble results even on a 1-CPU host.
  exp::SweepRunner runner(exp::SweepRunner::Options{.threads = 8});
  const auto parallel = runner.run(base, loads);

  ASSERT_EQ(parallel.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    SCOPED_TRACE("load index " + std::to_string(i));
    expect_summary_identical(parallel[i].summary, serial[i]);
  }
}

TEST(SweepRunner, RunConfigsKeepsOrderAcrossSystems) {
  std::vector<core::ExperimentConfig> configs;
  configs.push_back(small_config());
  configs.push_back(small_config().on(core::SystemKind::kRss));
  configs.push_back(small_config().on(core::SystemKind::kShinjuku));

  exp::SweepRunner parallel(exp::SweepRunner::Options{.threads = 4});
  exp::SweepRunner serial(exp::SweepRunner::Options{.threads = 1});
  const auto a = parallel.run_configs(configs);
  const auto b = serial.run_configs(configs);

  ASSERT_EQ(a.size(), configs.size());
  ASSERT_EQ(b.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config index " + std::to_string(i));
    expect_summary_identical(a[i].summary, b[i].summary);
  }
}

TEST(SweepRunner, ShardOverrideMatchesSerialAndDividesThePool) {
  // The pool shrinks so points x shards stays at the thread budget...
  exp::SweepRunner sharded(
      exp::SweepRunner::Options{.threads = 8, .shards = 4});
  EXPECT_EQ(sharded.thread_count(), 2u);
  EXPECT_EQ(sharded.shard_count(), 4u);
  exp::SweepRunner starved(
      exp::SweepRunner::Options{.threads = 2, .shards = 4});
  EXPECT_EQ(starved.thread_count(), 1u);  // never below one point at a time

  // ...and the override changes only where the points run, not what they
  // compute: a rack sweep at 4 shards reproduces the serial results.
  const auto base = core::ExperimentConfig::offload()
                        .workers(2)
                        .outstanding(2)
                        .bimodal()
                        .samples(2'000)
                        .with_rack(4)
                        .with_seed(11);
  const auto loads = exp::load_grid(100e3, 200e3, 2);
  exp::SweepRunner serial(exp::SweepRunner::Options{.threads = 1});
  const auto reference = serial.run(base, loads);
  const auto parallel = sharded.run(base, loads);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("load index " + std::to_string(i));
    expect_summary_identical(parallel[i].summary, reference[i].summary);
  }
}

TEST(SweepRunner, RejectsSharedResponseLog) {
  stats::ResponseLog log;
  auto config = small_config();
  config.response_log = &log;
  EXPECT_THROW(exp::SweepRunner().run(config, {100e3}),
               std::invalid_argument);
}

TEST(SweepRunner, MapPreservesItemOrder) {
  const std::vector<int> items = {3, 1, 4, 1, 5, 9, 2, 6};
  exp::SweepRunner runner(exp::SweepRunner::Options{.threads = 8});
  const auto doubled =
      runner.map(items, [](const int value) { return value * 2; });
  ASSERT_EQ(doubled.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(doubled[i], items[i] * 2);
  }
}

exp::ResultRow sample_row() {
  exp::ResultRow row;
  row.series = "shinjuku-offload @ \"test\"";  // exercises string escaping
  row.summary.offered_rps = 123456.789012345;
  row.summary.achieved_rps = 123400.000000123;
  row.summary.issued = 10'000;
  row.summary.completed = 9'999;
  row.summary.mean_us = 17.25;
  row.summary.p50_us = 15.8;
  row.summary.p90_us = 21.0 / 3.0;  // non-terminating binary fraction
  row.summary.p99_us = 29.1;
  row.summary.p999_us = 970.8;
  row.summary.max_us = 1204.2;
  row.summary.preemptions = 3550;
  row.server.requests_received = 10'050;
  row.server.responses_sent = 9'999;
  row.server.preemptions = 3550;
  row.server.spurious_interrupts = 12;
  row.server.steals = 7;
  row.server.drops = 1;
  row.server.queue_max_depth = 42;
  row.server.worker_utilization = {0.91, 0.875, 1.0 / 3.0};
  row.server.ddio.l1_touches = 9'000;
  row.server.ddio.llc_touches = 900;
  row.server.ddio.dram_touches = 150;
  row.server.reliability.retransmits = 31;
  row.server.reliability.note_retransmits = 17;
  row.server.reliability.timeouts = 48;
  row.server.reliability.redispatched = 5;
  row.server.reliability.abandoned = 2;
  row.server.reliability.duplicates = 9;
  row.server.reliability.worker_deaths = 1;
  row.server.reliability.revivals = 1;
  row.summary.goodput = 9'500;
  row.summary.goodput_rps = 95000.000000456;
  row.server.overload.admitted = 10'020;
  row.server.overload.rejected = 30;
  row.server.overload.shed_expired = 11;
  row.server.overload.k_shrinks = 6;
  row.server.overload.k_restores = 4;
  row.mean_worker_utilization = (0.91 + 0.875 + 1.0 / 3.0) / 3.0;
  return row;
}

TEST(ResultSink, JsonRoundTripsAllFields) {
  exp::JsonResultSink sink("unit_test", "Unit test \"figure\"\n2nd line");
  sink.add(sample_row());
  exp::ResultRow second = sample_row();
  second.series = "rss-rtc";
  second.server.worker_utilization.clear();
  sink.add(second);
  sink.add_metric("sat_rps", 4.4e6);
  sink.add_metric("negative", -1.5);
  sink.add_check("shape holds", true);
  sink.add_check("other shape", false);

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto parsed = exp::parse_json_results(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->name, "unit_test");
  EXPECT_EQ(parsed->title, "Unit test \"figure\"\n2nd line");
  EXPECT_EQ(parsed->fast_mode, exp::fast_mode());
  ASSERT_EQ(parsed->rows.size(), 2u);
  expect_row_identical(parsed->rows[0], sample_row());
  EXPECT_EQ(parsed->rows[1].series, "rss-rtc");
  EXPECT_TRUE(parsed->rows[1].server.worker_utilization.empty());
  ASSERT_EQ(parsed->metrics.size(), 2u);
  EXPECT_EQ(parsed->metrics[0].first, "sat_rps");
  EXPECT_EQ(parsed->metrics[0].second, 4.4e6);
  EXPECT_EQ(parsed->metrics[1].second, -1.5);
  ASSERT_EQ(parsed->checks.size(), 2u);
  EXPECT_EQ(parsed->checks[0].label, "shape holds");
  EXPECT_TRUE(parsed->checks[0].pass);
  EXPECT_FALSE(parsed->checks[1].pass);
}

TEST(ResultSink, CsvRoundTripsAllFields) {
  exp::CsvResultSink sink;
  sink.add(sample_row());

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto rows = exp::parse_csv_rows(out.str(), &error);
  ASSERT_TRUE(rows.has_value()) << error;
  ASSERT_EQ(rows->size(), 1u);
  expect_row_identical((*rows)[0], sample_row());
}

TEST(ResultSink, JsonRoundTripsRackStats) {
  exp::JsonResultSink sink("rack_test", "rack");
  sink.add(sample_row());  // no rack block
  sink.add(rack_row());

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto parsed = exp::parse_json_results(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_FALSE(parsed->rows[0].rack.has_value());
  ASSERT_TRUE(parsed->rows[1].rack.has_value());
  const exp::ResultRow reference = rack_row();
  expect_rack_aggregates_identical(*parsed->rows[1].rack, *reference.rack);
  // JSON is the lossless path: per-host rows survive too.
  ASSERT_EQ(parsed->rows[1].rack->hosts.size(), 4u);
  const rack::RackHostStats& host = parsed->rows[1].rack->hosts[2];
  EXPECT_EQ(host.requests, 12'525u);
  EXPECT_EQ(host.responses, 12'500u);
  EXPECT_EQ(host.rejects, 10u);
  EXPECT_EQ(host.outstanding, 15u);
  EXPECT_EQ(host.deaths, 1u);
  EXPECT_EQ(host.revivals, 1u);
  EXPECT_EQ(host.resets, 2u);
  EXPECT_EQ(host.feedback_discarded, 9u);
  EXPECT_EQ(host.sojourn_ewma_us, 7.0 / 3.0);
  EXPECT_EQ(host.queue_depth, 6u);
  // Per-tenant slices survive JSON at both levels (host and rack-wide).
  ASSERT_EQ(host.tenants.size(), 1u);
  EXPECT_EQ(host.tenants[0].tenant, 3u);
  EXPECT_EQ(host.tenants[0].requests, 12'000u);
  EXPECT_EQ(host.tenants[0].outstanding, 6u);
  ASSERT_EQ(parsed->rows[1].rack->tenants.size(), 1u);
  EXPECT_EQ(parsed->rows[1].rack->tenants[0].requests, 48'000u);
}

TEST(ResultSink, CsvRoundTripsRackAggregates) {
  exp::CsvResultSink sink;
  sink.add(sample_row());  // rack columns all zero
  sink.add(rack_row());

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto rows = exp::parse_csv_rows(out.str(), &error);
  ASSERT_TRUE(rows.has_value()) << error;
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_FALSE((*rows)[0].rack.has_value());
  ASSERT_TRUE((*rows)[1].rack.has_value());
  const exp::ResultRow reference = rack_row();
  expect_rack_aggregates_identical(*(*rows)[1].rack, *reference.rack);
}

exp::ResultRow tenant_row() {
  exp::ResultRow row = sample_row();
  row.series = "tenant mix";
  tenant::TenantStats lc;
  lc.id = 1;
  lc.enqueued = 9'000;
  lc.dispatched = 8'990;
  lc.max_depth = 17;
  lc.overload.admitted = 9'100;
  lc.overload.rejected = 100;
  lc.overload.shed_expired = 12;
  tenant::TenantStats be;
  be.id = 7;
  be.enqueued = 480;
  be.dispatched = 475;
  be.max_depth = 233;
  be.overload.admitted = 500;
  be.overload.rejected = 20;
  be.overload.shed_expired = 5;
  row.server.tenants = {lc, be};
  return row;
}

TEST(ResultSink, CsvRoundTripsTenantRows) {
  exp::CsvResultSink sink;
  sink.add(sample_row());  // empty tenants cell
  sink.add(tenant_row());

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto rows = exp::parse_csv_rows(out.str(), &error);
  ASSERT_TRUE(rows.has_value()) << error;
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_TRUE((*rows)[0].server.tenants.empty());
  expect_row_identical((*rows)[1], tenant_row());
}

TEST(ResultSink, JsonRoundTripsTenantRows) {
  exp::JsonResultSink sink("tenant_test", "tenants");
  sink.add(sample_row());
  sink.add(tenant_row());

  std::ostringstream out;
  sink.write(out);

  std::string error;
  const auto parsed = exp::parse_json_results(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_TRUE(parsed->rows[0].server.tenants.empty());
  expect_row_identical(parsed->rows[1], tenant_row());
}

TEST(ResultSink, CsvRejectsUnsupportedSchemaVersion) {
  exp::CsvResultSink sink;
  sink.add(sample_row());
  std::ostringstream out;
  sink.write(out);
  std::string text = out.str();
  // Bump the schema cell of the data row to a version this parser predates.
  const std::size_t newline = text.find('\n');
  text = text.substr(0, newline + 1) + "99" +
         text.substr(newline + 1 + 1);  // "3" -> "99"

  std::string error;
  EXPECT_FALSE(exp::parse_csv_rows(text, &error).has_value());
  EXPECT_NE(error.find("unsupported schema"), std::string::npos) << error;

  // An unversioned row — the pre-schema exports led with the series name —
  // is refused loudly rather than read with shifted columns.
  const std::string unversioned = out.str().substr(0, newline + 1) +
                                  out.str().substr(newline + 1 + 2);
  error.clear();
  EXPECT_FALSE(exp::parse_csv_rows(unversioned, &error).has_value());
  EXPECT_NE(error.find("no leading schema version cell"), std::string::npos)
      << error;
}

TEST(ResultSink, JsonRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(exp::parse_json_results("{\"rows\": [", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(exp::parse_json_results("not json at all", nullptr)
                   .has_value());
}

TEST(LoadGrid, HandlesDegenerateCounts) {
  EXPECT_TRUE(exp::load_grid(100e3, 200e3, 0).empty());
  EXPECT_TRUE(exp::load_grid(100e3, 200e3, -3).empty());

  // The historical bench helper divided by zero here.
  const auto single = exp::load_grid(100e3, 200e3, 1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], 100e3);

  const auto grid = exp::load_grid(100e3, 300e3, 3);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[0], 100e3);
  EXPECT_EQ(grid[1], 200e3);
  EXPECT_EQ(grid[2], 300e3);
}

TEST(SystemKind, FromStringRoundTripsEveryKind) {
  const core::SystemKind kinds[] = {
      core::SystemKind::kShinjuku,     core::SystemKind::kShinjukuOffload,
      core::SystemKind::kRss,          core::SystemKind::kFlowDirector,
      core::SystemKind::kWorkStealing, core::SystemKind::kElasticRss,
      core::SystemKind::kIdealNic,     core::SystemKind::kRpcValet,
  };
  for (const auto kind : kinds) {
    SCOPED_TRACE(core::to_string(kind));
    EXPECT_EQ(core::from_string(core::to_string(kind)), kind);
    const auto maybe = core::try_from_string(core::to_string(kind));
    ASSERT_TRUE(maybe.has_value());
    EXPECT_EQ(*maybe, kind);
  }
  EXPECT_FALSE(core::try_from_string("no-such-system").has_value());
  EXPECT_THROW(core::from_string("no-such-system"), std::invalid_argument);
}

}  // namespace
}  // namespace nicsched
