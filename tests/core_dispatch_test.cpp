// Unit tests for the two dispatcher building blocks every centralized family
// shares: ReliableDispatch (DESIGN §9) driven on a bare simulator with fake
// transport hooks, and CentralQueue (DESIGN §11/§13) on its own.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/reliable_dispatch.h"
#include "overload/overload.h"
#include "sim/simulator.h"
#include "tenant/tenant.h"

namespace nicsched::core {
namespace {

proto::RequestDescriptor request(std::uint64_t id, std::uint16_t tenant = 0) {
  proto::RequestDescriptor descriptor;
  descriptor.request_id = id;
  descriptor.tenant = tenant;
  descriptor.remaining_ps = 1'000'000;
  descriptor.total_ps = 1'000'000;
  return descriptor;
}

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint{} + sim::Duration::micros(us);
}

// ------------------------------------------------------- ReliableDispatch

ReliabilityParams reliability(std::uint32_t retry_budget,
                              std::uint32_t miss_threshold) {
  ReliabilityParams params;
  params.enabled = true;
  params.rto = sim::Duration::micros(10);
  params.backoff = 2.0;
  params.retry_budget = retry_budget;
  params.miss_threshold = miss_threshold;
  params.completion_timeout = sim::Duration::micros(500);
  return params;
}

/// Two workers, K = 4, and hooks that record what the table asked for.
class Harness {
 public:
  struct Resend {
    sim::TimePoint at;
    std::size_t worker;
    std::uint64_t request_id;
    std::uint64_t seq;
  };

  explicit Harness(const ReliabilityParams& params,
                   overload::AdaptiveKController* adaptive_k = nullptr)
      : dispatch(sim, params, status, adaptive_k, "test",
                 {[this](std::size_t worker,
                         const proto::RequestDescriptor& descriptor,
                         std::uint64_t seq) {
                    resends.push_back(
                        {sim.now(), worker, descriptor.request_id, seq});
                  },
                  [this](proto::RequestDescriptor descriptor) {
                    requeued.push_back(descriptor.request_id);
                  },
                  [this]() { ++kicks; }}) {}

  /// What a family's dispatch step does: take a slot, then track.
  void send(std::uint64_t id, std::size_t worker, std::uint64_t seq) {
    status.note_sent(worker, sim.now());
    dispatch.track(request(id), worker, seq);
  }

  sim::Simulator sim;
  CoreStatusTable status{2, 4};
  std::vector<Resend> resends;
  std::vector<std::uint64_t> requeued;
  int kicks = 0;
  ReliableDispatch dispatch;
};

TEST(ReliableDispatch, RetransmitsBackOffGeometricallyUnderTheSameSeq) {
  Harness h(reliability(/*retry_budget=*/4, /*miss_threshold=*/100));
  h.send(7, 0, 1);
  h.sim.run_until(at_us(100));

  // RTO 10 us, backoff 2: resends 10, 20 and 40 us apart.
  ASSERT_EQ(h.resends.size(), 3u);
  EXPECT_EQ(h.resends[0].at, at_us(10));
  EXPECT_EQ(h.resends[1].at, at_us(30));
  EXPECT_EQ(h.resends[2].at, at_us(70));
  for (const auto& resend : h.resends) {
    EXPECT_EQ(resend.worker, 0u);
    EXPECT_EQ(resend.request_id, 7u);
    EXPECT_EQ(resend.seq, 1u);
  }
  EXPECT_EQ(h.dispatch.stats().retransmits, 3u);
  EXPECT_EQ(h.dispatch.stats().timeouts, 3u);
  EXPECT_EQ(h.dispatch.stats().abandoned, 0u);
}

TEST(ReliableDispatch, AckSwapsResendsForTheCompletionWatchdog) {
  Harness h(reliability(4, 100));
  h.send(7, 1, 1);
  h.sim.run_until(at_us(5));
  h.dispatch.ack(1, 1);
  h.dispatch.ack(1, 1);  // a re-ack of the same seq is a duplicate
  EXPECT_EQ(h.dispatch.stats().duplicates, 1u);

  h.sim.run_until(at_us(504));
  EXPECT_TRUE(h.resends.empty());
  EXPECT_TRUE(h.status.entry(1).healthy);

  // The watchdog fires completion_timeout after the ack: the worker took
  // the request and went silent, so it is declared dead.
  h.sim.run_until(at_us(506));
  EXPECT_FALSE(h.status.entry(1).healthy);
  EXPECT_EQ(h.requeued, std::vector<std::uint64_t>{7});
  EXPECT_EQ(h.dispatch.stats().worker_deaths, 1u);
}

TEST(ReliableDispatch, ExhaustedBudgetAbandonsAndLateCompletionUncounts) {
  Harness h(reliability(/*retry_budget=*/3, /*miss_threshold=*/100));
  h.send(7, 0, 1);
  h.sim.run_until(at_us(1000));

  // Attempts at 0, 10 and 30 us; the timeout at 70 us finds the budget
  // spent and frees the slot instead of resending.
  EXPECT_EQ(h.resends.size(), 2u);
  EXPECT_EQ(h.dispatch.stats().abandoned, 1u);
  EXPECT_EQ(h.status.entry(0).outstanding, 0u);
  EXPECT_EQ(h.kicks, 1);
  EXPECT_TRUE(h.status.entry(0).healthy);

  // A late preemption keeps the abandonment; a late completion proves the
  // client got its response after all and un-counts it.
  EXPECT_FALSE(h.dispatch.retire(0, 7, /*completed=*/false));
  EXPECT_EQ(h.dispatch.stats().abandoned, 1u);
  EXPECT_FALSE(h.dispatch.retire(0, 7, /*completed=*/true));
  EXPECT_EQ(h.dispatch.stats().abandoned, 0u);
}

TEST(ReliableDispatch, MissThresholdResteersHeldIdsInAscendingOrder) {
  Harness h(reliability(/*retry_budget=*/10, /*miss_threshold=*/3));
  h.send(5, 0, 1);
  h.dispatch.ack(0, 1);  // worker 0 is healthy and holds an acked request
  h.send(30, 1, 2);
  h.send(10, 1, 3);
  h.send(20, 1, 4);
  h.sim.run_until(at_us(10));

  // All three RTOs on worker 1 fire at 10 us in tracking order: the first
  // two resend, the third reaches the threshold.
  ASSERT_EQ(h.resends.size(), 2u);
  EXPECT_EQ(h.resends[0].request_id, 30u);
  EXPECT_EQ(h.resends[1].request_id, 10u);
  EXPECT_EQ(h.requeued, (std::vector<std::uint64_t>{10, 20, 30}));
  EXPECT_EQ(h.kicks, 1);
  EXPECT_FALSE(h.status.entry(1).healthy);
  EXPECT_EQ(h.status.entry(1).outstanding, 0u);
  EXPECT_EQ(h.dispatch.stats().worker_deaths, 1u);
  EXPECT_EQ(h.dispatch.stats().redispatched, 3u);

  // The re-steered entries' timers died with them; worker 0 is untouched.
  h.sim.run_until(at_us(400));
  EXPECT_EQ(h.resends.size(), 2u);
  EXPECT_TRUE(h.status.entry(0).healthy);
  EXPECT_TRUE(h.dispatch.retire(0, 5, /*completed=*/true));
}

TEST(ReliableDispatch, RetireFromAWorkerTheRequestLeftIsADuplicate) {
  Harness h(reliability(/*retry_budget=*/10, /*miss_threshold=*/1));
  h.send(7, 1, 1);
  h.sim.run_until(at_us(10));
  ASSERT_EQ(h.requeued, std::vector<std::uint64_t>{7});

  // The dispatcher places the re-steered request on worker 0; then the old
  // worker, which was only slow, reports it done.
  h.send(7, 0, 2);
  EXPECT_FALSE(h.dispatch.retire(1, 7, /*completed=*/true));
  EXPECT_EQ(h.dispatch.stats().duplicates, 1u);
  EXPECT_TRUE(h.dispatch.retire(0, 7, /*completed=*/true));
  EXPECT_FALSE(h.dispatch.retire(0, 7, /*completed=*/true));
  EXPECT_EQ(h.dispatch.stats().duplicates, 2u);
}

TEST(ReliableDispatch, RevivalResetsTimeoutStreakAndCapacity) {
  overload::OverloadParams overload;
  overload.enabled = true;
  overload::AdaptiveKController adaptive_k(overload, 2, 4);
  Harness h(reliability(/*retry_budget=*/10, /*miss_threshold=*/2),
            &adaptive_k);
  h.send(7, 0, 1);
  h.sim.run_until(at_us(10));  // streak 1
  h.dispatch.note_alive(0);    // streak back to 0
  h.sim.run_until(at_us(30));  // streak 1 again: no verdict yet
  EXPECT_EQ(h.dispatch.stats().worker_deaths, 0u);
  EXPECT_EQ(h.resends.size(), 2u);

  h.status.set_capacity(0, 1);  // as if adaptive-K had shrunk it
  h.sim.run_until(at_us(70));   // streak 2: dead
  EXPECT_EQ(h.dispatch.stats().worker_deaths, 1u);
  EXPECT_FALSE(h.status.entry(0).healthy);
  EXPECT_EQ(h.status.entry(0).capacity, 4u);
  const int kicks_at_death = h.kicks;

  h.status.set_capacity(0, 1);
  h.dispatch.note_alive(0);
  EXPECT_TRUE(h.status.entry(0).healthy);
  EXPECT_EQ(h.status.entry(0).capacity, 4u);
  EXPECT_EQ(h.dispatch.stats().revivals, 1u);
  EXPECT_EQ(h.kicks, kicks_at_death + 1);
  h.dispatch.note_alive(0);  // already alive: no second revival
  EXPECT_EQ(h.dispatch.stats().revivals, 1u);

  // The verdict cleared the streak: one more miss is not a second death.
  h.send(8, 0, 2);
  h.sim.run_until(at_us(80));
  EXPECT_EQ(h.dispatch.stats().worker_deaths, 1u);
  EXPECT_TRUE(h.status.entry(0).healthy);
}

// ----------------------------------------------------------- CentralQueue

tenant::TenantParams two_tenants() {
  return tenant::TenantParams::from_specs(
      {tenant::make_tenant(1).slo_class(tenant::SloClass::kLatencyCritical),
       tenant::make_tenant(2).slo_class(tenant::SloClass::kBestEffort)});
}

std::vector<std::uint64_t> drain(CentralQueue& queue, sim::TimePoint now) {
  std::vector<std::uint64_t> ids;
  sim::Duration delay;
  while (auto descriptor = queue.pop(now, delay)) {
    ids.push_back(descriptor->request_id);
  }
  return ids;
}

TEST(CentralQueue, FifoWithoutTenantsPriorityLanesWithThem) {
  CentralQueue fifo(QueuePolicy::kFcfs, {}, {});
  CentralQueue lanes(QueuePolicy::kFcfs, {}, two_tenants());
  for (CentralQueue* queue : {&fifo, &lanes}) {
    queue->push_new(request(1, 2), at_us(0));
    queue->push_new(request(2, 1), at_us(1));
    queue->push_preempted(request(3, 2), at_us(2));
    EXPECT_EQ(queue->depth(), 3u);
  }
  EXPECT_EQ(drain(fifo, at_us(5)), (std::vector<std::uint64_t>{1, 2, 3}));
  // The latency-critical tenant jumps the best-effort backlog.
  EXPECT_EQ(drain(lanes, at_us(5)), (std::vector<std::uint64_t>{2, 1, 3}));
  EXPECT_TRUE(fifo.empty());
  EXPECT_TRUE(lanes.empty());

  ServerStats stats;
  fifo.add_to(stats);
  EXPECT_EQ(stats.queue_max_depth, 3u);
  EXPECT_TRUE(stats.tenants.empty());
  lanes.add_to(stats);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].dispatched, 1u);
  EXPECT_EQ(stats.tenants[1].dispatched, 2u);
}

TEST(CentralQueue, AdmissionJudgesCentralPlusExtraDepthAndCounts) {
  overload::OverloadParams overload;
  overload.enabled = true;
  overload.admission_depth_limit = 3;
  CentralQueue queue(QueuePolicy::kFcfs, overload, {});
  queue.push_new(request(1), at_us(0));
  queue.push_new(request(2), at_us(0));

  const auto fits = queue.admit(0, /*extra_depth=*/1);
  EXPECT_TRUE(fits.admitted);
  EXPECT_EQ(fits.depth, 3u);
  const auto over = queue.admit(0, /*extra_depth=*/2);
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.depth, 4u);

  ServerStats stats;
  queue.add_to(stats);
  EXPECT_EQ(stats.overload.admitted, 1u);
  EXPECT_EQ(stats.overload.rejected, 1u);
  ServerTelemetry telemetry;
  queue.add_to(telemetry);
  EXPECT_EQ(telemetry.queue_depth, 2u);
  EXPECT_EQ(telemetry.rejected, 1u);

  // Overload control off: every request is admitted and nothing is counted.
  CentralQueue open(QueuePolicy::kFcfs, {}, {});
  EXPECT_TRUE(open.admit(0, 1'000'000).admitted);
  ServerStats open_stats;
  open.add_to(open_stats);
  EXPECT_EQ(open_stats.overload.admitted, 0u);
}

TEST(CentralQueue, TenantAdmissionJudgesOnlyTheTenantsOwnLane) {
  overload::OverloadParams overload;
  overload.enabled = true;
  overload.admission_depth_limit = 1;
  CentralQueue queue(QueuePolicy::kFcfs, overload, two_tenants());
  queue.push_new(request(1, 2), at_us(0));
  queue.push_new(request(2, 2), at_us(0));

  EXPECT_FALSE(queue.admit(2, 0).admitted);
  const auto lc = queue.admit(1, /*extra_depth=*/100);
  EXPECT_TRUE(lc.admitted);
  EXPECT_EQ(lc.depth, 0u);

  ServerTelemetry telemetry;
  queue.add_to(telemetry);
  EXPECT_EQ(telemetry.tenant_depths, (std::vector<std::size_t>{0, 2}));
  ServerStats stats;
  queue.add_to(stats);
  EXPECT_EQ(stats.tenants[0].overload.admitted, 1u);
  EXPECT_EQ(stats.tenants[1].overload.rejected, 1u);
}

TEST(CentralQueue, CancelDropsTheRequestAtPop) {
  CentralQueue fifo(QueuePolicy::kFcfs, {}, {});
  CentralQueue lanes(QueuePolicy::kFcfs, {}, two_tenants());
  for (CentralQueue* queue : {&fifo, &lanes}) {
    queue->push_new(request(1, 1), at_us(0));
    queue->push_new(request(2, 1), at_us(0));
    queue->push_new(request(3, 1), at_us(0));
    queue->cancel(2);
    queue->cancel(99);  // never queued here: harmless
    EXPECT_EQ(drain(*queue, at_us(1)), (std::vector<std::uint64_t>{1, 3}));
    ServerStats stats;
    queue->add_to(stats);
    EXPECT_EQ(stats.cancelled, 1u);
  }
}

// A cancel that lands while its request is away from the queue (running on
// a worker) still drops the request when a preemption or re-steer requeues
// it; the fault-path goldens depend on that.
TEST(CentralQueue, CancelForAnAbsentIdDropsItsNextPush) {
  CentralQueue fifo(QueuePolicy::kFcfs, {}, {});
  CentralQueue lanes(QueuePolicy::kFcfs, {}, two_tenants());
  for (CentralQueue* queue : {&fifo, &lanes}) {
    queue->push_new(request(1, 1), at_us(0));
    EXPECT_EQ(drain(*queue, at_us(1)), (std::vector<std::uint64_t>{1}));
    queue->cancel(1);
    queue->push_preempted(request(1, 1), at_us(2));
    queue->push_new(request(2, 1), at_us(2));
    EXPECT_EQ(drain(*queue, at_us(3)), (std::vector<std::uint64_t>{2}));
    queue->push_preempted(request(1, 1), at_us(4));  // the mark is spent
    EXPECT_EQ(drain(*queue, at_us(5)), (std::vector<std::uint64_t>{1}));
  }
}

TEST(CentralQueue, PopMeasuresDelayAndShedsExpiredUnderOverload) {
  overload::OverloadParams overload;
  overload.enabled = true;
  CentralQueue queue(QueuePolicy::kFcfs, overload, {});
  proto::RequestDescriptor expired = request(1);
  expired.deadline_ps =
      static_cast<std::uint64_t>(sim::Duration::micros(3).to_picos());
  queue.push_new(expired, at_us(0));
  queue.push_new(request(2), at_us(1));

  sim::Duration delay;
  const auto popped = queue.pop(at_us(4), delay);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->request_id, 2u);
  EXPECT_EQ(delay, sim::Duration::micros(3));
  ServerStats stats;
  queue.add_to(stats);
  EXPECT_EQ(stats.overload.shed_expired, 1u);
}

}  // namespace
}  // namespace nicsched::core
