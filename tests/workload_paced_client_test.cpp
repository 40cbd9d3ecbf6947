// The JIT-paced closed-loop client: window adaptation and conservation.
#include "workload/paced_client.h"

#include <gtest/gtest.h>

#include "core/nic_server.h"
#include "stats/recorder.h"

namespace nicsched::workload {
namespace {

struct PacedFixture : ::testing::Test {
  PacedFixture()
      : params(core::ModelParams::defaults()),
        network(sim, params.switch_forward_latency) {}

  core::NicSchedServer& make_server(std::size_t workers) {
    core::HostSpec spec;
    spec.system = core::SystemKind::kIdealNic;
    spec.worker_count = workers;
    spec.outstanding_per_worker = 2;
    spec.preemption_enabled = false;
    spec.params = params;
    server = std::make_unique<core::NicSchedServer>(sim, network, spec);
    return *server;
  }

  std::unique_ptr<PacedClient> make_client(
      std::shared_ptr<ServiceDistribution> service, std::uint32_t target) {
    PacedClient::Config config;
    config.client_id = 1;
    config.mac = net::MacAddress::from_index(1);
    config.ip = net::Ipv4Address::from_index(1);
    config.server_mac = server->ingress_mac();
    config.server_ip = server->ingress_ip();
    config.server_port = server->port();
    config.target_queue_depth = target;
    return std::make_unique<PacedClient>(sim, network, config,
                                         std::move(service), sim::Rng(5));
  }

  sim::Simulator sim;
  core::ModelParams params;
  net::EthernetSwitch network;
  std::unique_ptr<core::NicSchedServer> server;
};

TEST_F(PacedFixture, EveryRequestGetsExactlyOneResponse) {
  make_server(2);
  auto client = make_client(
      std::make_shared<FixedDistribution>(sim::Duration::micros(5)), 4);
  std::uint64_t responses = 0;
  client->set_on_response([&](const ResponseRecord&) { ++responses; });
  client->start(sim::TimePoint::origin() + sim::Duration::millis(20));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(25));

  EXPECT_GT(client->sent(), 1000u);
  EXPECT_EQ(client->received(), client->sent());
  EXPECT_EQ(responses, client->received());
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(PacedFixture, WindowGrowsToSaturateIdleServer) {
  make_server(8);
  auto client = make_client(
      std::make_shared<FixedDistribution>(sim::Duration::micros(5)), 8);
  const double initial = client->window();
  client->start(sim::TimePoint::origin() + sim::Duration::millis(20));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(20));
  // 8 workers x 5 us need ~tens of requests in flight to stay busy; the
  // window must have grown well past its initial value.
  EXPECT_GT(client->window(), initial * 1.5);
  // And achieved throughput should be a solid fraction of the 1.55 MRPS
  // capacity even with a single client.
  const double achieved =
      static_cast<double>(client->received()) / 20e-3;
  EXPECT_GT(achieved, 0.4e6);
}

TEST_F(PacedFixture, WindowBacksOffWhenServerQueueBuilds) {
  // One worker and slow requests: any window above ~target immediately
  // reports deep queues, so AIMD must keep the window small.
  make_server(1);
  auto client = make_client(
      std::make_shared<FixedDistribution>(sim::Duration::micros(100)), 2);
  client->start(sim::TimePoint::origin() + sim::Duration::millis(30));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(30));
  EXPECT_LT(client->window(), 16.0);
  EXPECT_GT(client->received(), 100u);
}

TEST_F(PacedFixture, BoundedTailUnderPersistentOverpressure) {
  make_server(2);
  auto client = make_client(
      std::make_shared<FixedDistribution>(sim::Duration::micros(10)), 4);
  stats::LatencyRecorder recorder;
  recorder.set_window(sim::TimePoint::origin() + sim::Duration::millis(5),
                      sim::TimePoint::origin() + sim::Duration::millis(40));
  client->set_on_response(
      [&](const ResponseRecord& record) { recorder.record(record); });
  client->start(sim::TimePoint::origin() + sim::Duration::millis(40));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(45));

  // The closed loop cannot melt down: p99 stays within a small multiple of
  // the no-load round trip (~20 us) instead of growing with time.
  EXPECT_LT(recorder.overall().quantile(0.99).to_micros(), 200.0);
  EXPECT_GT(recorder.completed_in_window(), 1000u);
}

}  // namespace
}  // namespace nicsched::workload
