#include <gtest/gtest.h>

#include <map>

#include "core/testbed.h"
#include "obs/capture.h"
#include "obs/span.h"
#include "obs/span_recorder.h"
#include "sim/simulator.h"

namespace nicsched {
namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::origin() + sim::Duration::micros(us);
}

sim::SpanEvent event(std::int64_t us, std::uint64_t id, obs::SpanKind kind,
                     bool begin, std::uint32_t component = 0) {
  sim::SpanEvent e;
  e.when = at_us(us);
  e.request_id = id;
  e.kind = static_cast<std::uint16_t>(kind);
  e.begin = begin;
  e.component = component;
  return e;
}

TEST(SpanRecorder, AssemblesTiledLifecycle) {
  obs::SpanRecorder recorder;
  recorder.on_event(event(0, 7, obs::SpanKind::kClientWire, true));
  recorder.on_event(event(2, 7, obs::SpanKind::kClientWire, false));
  recorder.on_event(event(2, 7, obs::SpanKind::kNicRx, true));
  recorder.on_event(event(3, 7, obs::SpanKind::kNicRx, false));
  recorder.on_event(event(3, 7, obs::SpanKind::kService, true, 100));
  recorder.on_event(event(8, 7, obs::SpanKind::kService, false, 100));
  recorder.on_event(event(8, 7, obs::SpanKind::kResponse, true, 100));
  recorder.on_event(event(10, 7, obs::SpanKind::kResponse, false));

  EXPECT_EQ(recorder.violations(), 0u);
  const auto completed = recorder.completed();
  ASSERT_EQ(completed.size(), 1u);
  const obs::RequestLifecycle& life = completed[0];
  EXPECT_EQ(life.request_id, 7u);
  EXPECT_TRUE(life.complete);
  ASSERT_EQ(life.spans.size(), 4u);
  // Tiling: span sum equals end-to-end.
  EXPECT_EQ(life.total(), life.end() - life.begin());
  EXPECT_EQ(life.total(), sim::Duration::micros(10));
  EXPECT_EQ(life.total_of(obs::SpanKind::kService), sim::Duration::micros(5));
  EXPECT_EQ(life.spans[2].component, 100u);
}

TEST(SpanRecorder, CountsViolationsWithoutThrowing) {
  obs::SpanRecorder recorder;
  // End with nothing open.
  recorder.on_event(event(1, 1, obs::SpanKind::kService, false));
  EXPECT_EQ(recorder.unmatched_ends(), 1u);
  // Begin over an already-open span.
  recorder.on_event(event(2, 2, obs::SpanKind::kClientWire, true));
  recorder.on_event(event(3, 2, obs::SpanKind::kNicRx, true));
  EXPECT_EQ(recorder.double_begins(), 1u);
  // Time going backwards.
  recorder.on_event(event(1, 2, obs::SpanKind::kClientWire, false));
  EXPECT_EQ(recorder.time_regressions(), 1u);
  EXPECT_EQ(recorder.violations(), 3u);
  EXPECT_TRUE(recorder.completed().empty());
}

TEST(SpanRecorder, PreemptedRequestAccumulatesServiceSegments) {
  obs::SpanRecorder recorder;
  recorder.on_event(event(0, 3, obs::SpanKind::kService, true));
  recorder.on_event(event(4, 3, obs::SpanKind::kService, false));
  recorder.on_event(event(4, 3, obs::SpanKind::kRequeue, true));
  recorder.on_event(event(6, 3, obs::SpanKind::kRequeue, false));
  recorder.on_event(event(6, 3, obs::SpanKind::kService, true));
  recorder.on_event(event(9, 3, obs::SpanKind::kService, false));
  EXPECT_EQ(recorder.violations(), 0u);
  const auto incomplete = recorder.incomplete();
  ASSERT_EQ(incomplete.size(), 1u);
  EXPECT_EQ(incomplete[0].total_of(obs::SpanKind::kService),
            sim::Duration::micros(7));
  EXPECT_EQ(incomplete[0].total_of(obs::SpanKind::kRequeue),
            sim::Duration::micros(2));
}

// The acceptance property: on a real run, every completed request's span sum
// equals the latency the client measured, for every modelled system.
class SpanEndToEnd : public testing::TestWithParam<core::SystemKind> {};

TEST_P(SpanEndToEnd, SpanSumsEqualMeasuredLatency) {
  obs::CaptureOptions options;
  options.enabled = true;
  options.metric_cadence = sim::Duration::micros(50);

  stats::ResponseLog log;
  auto config = core::ExperimentConfig::of(GetParam())
                    .workers(4)
                    .fixed_5us()
                    .load(150e3)
                    .clients(2, 16)
                    .measure_for(sim::Duration::millis(5))
                    .with_capture(options);
  config.warmup = sim::Duration::millis(1);
  config.response_log = &log;
  const core::ExperimentResult result = core::run_experiment(config);

  ASSERT_NE(result.capture, nullptr);
  const obs::SpanRecorder& spans = result.capture->spans();
  EXPECT_EQ(spans.violations(), 0u);
  const auto completed = spans.completed();
  ASSERT_GT(completed.size(), 100u);

  std::map<std::uint64_t, const obs::RequestLifecycle*> by_id;
  for (const auto& life : completed) by_id[life.request_id] = &life;

  std::size_t checked = 0;
  for (const auto& row : log.records()) {
    auto it = by_id.find(row.request_id);
    if (it == by_id.end()) continue;  // outside the capture window
    const obs::RequestLifecycle& life = *it->second;
    const sim::Duration measured = row.received_at - row.sent_at;
    // Tiling within the lifecycle...
    EXPECT_EQ(life.total(), life.end() - life.begin());
    // ...and the lifecycle covers exactly the client-observed interval.
    EXPECT_EQ(life.total(), measured) << "request " << row.request_id;
    ++checked;
  }
  EXPECT_GT(checked, 100u);

  // The sampler ran on its cadence and saw the telemetry gauges.
  ASSERT_NE(result.capture->metrics(), nullptr);
  EXPECT_GT(result.capture->metrics()->ticks(), 0u);
  EXPECT_NE(result.capture->metrics()->find("queue_depth"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, SpanEndToEnd,
                         testing::Values(core::SystemKind::kShinjuku,
                                         core::SystemKind::kShinjukuOffload,
                                         core::SystemKind::kIdealNic,
                                         core::SystemKind::kRss),
                         [](const auto& param_info) {
                           std::string name =
                               core::to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SpanZeroCost, DisabledCaptureEmitsNothing) {
  sim::Simulator sim;
  EXPECT_FALSE(sim.span_enabled());
  // With no sink installed span() is a no-op; nothing to observe, but the
  // call must be safe.
  sim.span(1, 0, true, 0);
}

}  // namespace
}  // namespace nicsched
