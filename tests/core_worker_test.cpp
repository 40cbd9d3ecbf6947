// Unit tests for the shared host-worker run loop (HostWorker) and the
// dispatcher's informed time-slice table (SliceTimer), on a bare simulator
// with fake transport and dispatcher hooks.
#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "core/host_worker.h"
#include "core/slice_timer.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {
namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::origin() + sim::Duration::micros(us);
}

/// A worker whose transport is a plain FIFO the test fills directly, and
/// whose notes are recorded with their timestamps.
class FakeWorker final : public HostWorker {
 public:
  struct Recorded {
    Note note;
    proto::RequestDescriptor descriptor;
    sim::TimePoint at;
  };

  FakeWorker(sim::Simulator& sim, const ModelParams& params,
             net::NicInterface& reply)
      : HostWorker(sim, params,
                   {"fake-worker", 0, 100, kInterruptLatency,
                    sim::Duration::nanos(50), sim::Duration::nanos(20),
                    hw::PlacementPolicy::kDdioLlc, &reply, 9000, false}) {}

  static constexpr sim::Duration kInterruptLatency = sim::Duration::nanos(300);

  void assign(const proto::RequestDescriptor& descriptor) {
    queue_.push_back(descriptor);
    wake();
  }

  std::vector<Recorded> notes;

 private:
  bool fetch(proto::RequestDescriptor& out) override {
    if (queue_.empty()) return false;
    out = queue_.front();
    queue_.pop_front();
    return true;
  }
  std::uint32_t queued_behind() const override {
    return static_cast<std::uint32_t>(queue_.size());
  }
  void notify(Note note, const proto::RequestDescriptor& descriptor) override {
    notes.push_back({note, descriptor, sim_.now()});
  }

  std::deque<proto::RequestDescriptor> queue_;
};

struct WorkerRig {
  WorkerRig()
      : params(ModelParams::defaults()),
        network(sim, params.switch_forward_latency),
        nic(sim, net::Nic::Config{}),
        reply(nic.add_interface("pf", net::MacAddress::from_index(7),
                                net::Ipv4Address::from_index(7))) {
    nic.attach_to_switch(network, params.stingray_port_latency,
                         params.line_rate_gbps);
  }

  sim::Simulator sim;
  ModelParams params;
  net::EthernetSwitch network;
  net::Nic nic;
  net::NicInterface& reply;
};

proto::RequestDescriptor request(std::uint64_t id, sim::Duration work) {
  proto::RequestDescriptor descriptor;
  descriptor.request_id = id;
  descriptor.remaining_ps = static_cast<std::uint64_t>(work.to_picos());
  descriptor.total_ps = descriptor.remaining_ps;
  descriptor.client_mac = net::MacAddress::from_index(1);
  descriptor.client_ip = net::Ipv4Address::from_index(1);
  descriptor.client_port = 1234;
  return descriptor;
}

TEST(HostWorker, PreemptionRewritesRemainingWorkAndNotifiesOnce) {
  WorkerRig rig;
  FakeWorker worker(rig.sim, rig.params, rig.reply);
  const sim::Duration work = sim::Duration::micros(20);
  worker.assign(request(1, work));

  rig.sim.run_until(at_us(5));
  ASSERT_EQ(worker.notes.size(), 1u);
  ASSERT_EQ(worker.notes[0].note, HostWorker::Note::kStarted);
  const sim::TimePoint service_began = worker.notes[0].at;
  worker.interrupt();
  rig.sim.run_until(at_us(10));

  // Exactly one preempted note, carrying the work left when the interrupt
  // landed and a bumped preempt count; nothing completed.
  ASSERT_EQ(worker.notes.size(), 2u);
  const auto& preempted = worker.notes[1];
  EXPECT_EQ(preempted.note, HostWorker::Note::kPreempted);
  EXPECT_EQ(preempted.descriptor.request_id, 1u);
  EXPECT_EQ(preempted.descriptor.preempt_count, 1u);
  const sim::Duration ran =
      (at_us(5) + FakeWorker::kInterruptLatency) - service_began;
  EXPECT_EQ(preempted.descriptor.remaining_ps,
            static_cast<std::uint64_t>((work - ran).to_picos()));
  EXPECT_EQ(preempted.descriptor.total_ps,
            static_cast<std::uint64_t>(work.to_picos()));
  EXPECT_EQ(worker.counters().preemptions, 1u);
  EXPECT_EQ(worker.counters().responses_sent, 0u);

  // Handed back, the request resumes with only its remaining work and
  // completes exactly once.
  worker.assign(preempted.descriptor);
  rig.sim.run_until(at_us(100));
  ASSERT_EQ(worker.notes.size(), 4u);
  EXPECT_EQ(worker.notes[2].note, HostWorker::Note::kStarted);
  EXPECT_EQ(worker.notes[3].note, HostWorker::Note::kCompleted);
  EXPECT_EQ(worker.notes[3].descriptor.preempt_count, 1u);
  EXPECT_EQ(worker.counters().responses_sent, 1u);
  EXPECT_EQ(worker.counters().preemptions, 1u);
}

TEST(HostWorker, InterruptWithNothingRunningIsSpurious) {
  WorkerRig rig;
  FakeWorker worker(rig.sim, rig.params, rig.reply);
  worker.interrupt();
  rig.sim.run_until(at_us(5));
  EXPECT_TRUE(worker.notes.empty());
  EXPECT_EQ(worker.counters().spurious_interrupts, 1u);
  EXPECT_EQ(worker.counters().preemptions, 0u);
}

/// A dispatcher whose queue state the test sets and whose preempts it logs.
struct FakeDispatcher final : SliceTimer::Hooks {
  bool waiting = false;
  std::vector<std::pair<std::size_t, sim::TimePoint>> preempts;
  sim::Simulator* sim = nullptr;

  bool work_waiting() const override { return waiting; }
  void send_preempt(std::size_t worker) override {
    preempts.emplace_back(worker, sim->now());
  }
};

TEST(SliceTimer, ReArmsWhileQueueEmptyThenPreemptsOnce) {
  sim::Simulator sim;
  FakeDispatcher dispatcher;
  dispatcher.sim = &sim;
  SliceTimer timer(sim, sim::Duration::micros(10), /*armed=*/true, 2,
                   dispatcher);
  timer.start(0, 42);

  // Checks at 10, 20 and 30 µs find nothing waiting: keep running.
  sim.run_until(at_us(35));
  EXPECT_TRUE(dispatcher.preempts.empty());

  // Work shows up: the 40 µs check preempts, and the preempt now in flight
  // silences every later check.
  dispatcher.waiting = true;
  sim.run_until(at_us(200));
  ASSERT_EQ(dispatcher.preempts.size(), 1u);
  EXPECT_EQ(dispatcher.preempts[0].first, 0u);
  EXPECT_EQ(dispatcher.preempts[0].second, at_us(40));
}

TEST(SliceTimer, StaleTokenOrPreemptInFlightIsIgnored) {
  sim::Simulator sim;
  FakeDispatcher dispatcher;
  dispatcher.sim = &sim;
  dispatcher.waiting = true;
  SliceTimer timer(sim, sim::Duration::micros(10), /*armed=*/true, 3,
                   dispatcher);

  // Worker 0: run 1 is replaced by run 2 at 5 µs; run 1's 10 µs check is
  // stale, run 2's 15 µs check fires.
  timer.start(0, 1);
  // Worker 1: a preempt is already in flight when its check comes due.
  timer.start(1, 7);
  timer.preempt(1);
  // Worker 2: the run ended before its check.
  timer.start(2, 9);
  timer.stop(2);
  sim.run_until(at_us(5));
  timer.start(0, 2);
  sim.run_until(at_us(100));

  ASSERT_EQ(dispatcher.preempts.size(), 2u);
  EXPECT_EQ(dispatcher.preempts[0], std::make_pair(std::size_t{1}, at_us(0)));
  EXPECT_EQ(dispatcher.preempts[1], std::make_pair(std::size_t{0}, at_us(15)));
}

TEST(SliceTimer, UnarmedTimerOnlyRecordsRuns) {
  sim::Simulator sim;
  FakeDispatcher dispatcher;
  dispatcher.sim = &sim;
  dispatcher.waiting = true;
  SliceTimer timer(sim, sim::Duration::micros(10), /*armed=*/false, 3,
                   dispatcher);
  timer.start(0, 1);
  sim.run_until(at_us(3));
  timer.start(1, 1);
  sim.run_until(at_us(50));
  EXPECT_TRUE(dispatcher.preempts.empty());
  EXPECT_TRUE(timer.running(0));
  EXPECT_EQ(timer.token(0), 1u);
  // Preemption off means off: no worker is ever overdue, however long it
  // has run, so an arrival cannot preempt around the switch either.
  EXPECT_EQ(timer.longest_overdue(), std::nullopt);
}

TEST(SliceTimer, LongestOverdueIsTheOldestRunPastItsSlice) {
  sim::Simulator sim;
  FakeDispatcher dispatcher;  // nothing waiting: the checks only re-arm
  dispatcher.sim = &sim;
  SliceTimer timer(sim, sim::Duration::micros(10), /*armed=*/true, 3,
                   dispatcher);
  timer.start(0, 1);
  sim.run_until(at_us(3));
  timer.start(1, 1);
  timer.start(2, 1);
  EXPECT_EQ(timer.longest_overdue(), std::nullopt);  // none a slice old
  sim.run_until(at_us(50));

  // The longest-running worker past its slice is the victim; once a
  // preempt is in flight the next-oldest is.
  ASSERT_EQ(timer.longest_overdue(), std::optional<std::size_t>(0));
  timer.preempt(0);
  EXPECT_EQ(timer.longest_overdue(), std::optional<std::size_t>(1));
  timer.stop(1);
  timer.stop(2);
  EXPECT_EQ(timer.longest_overdue(), std::nullopt);
}

}  // namespace
}  // namespace nicsched::core
