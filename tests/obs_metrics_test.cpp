#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/shinjuku_server.h"
#include "net/ethernet_switch.h"
#include "obs/metrics.h"
#include "proto/messages.h"
#include "sim/simulator.h"

namespace nicsched {
namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::origin() + sim::Duration::micros(us);
}

TEST(MetricSampler, SamplesOnCadenceUntilDeadline) {
  sim::Simulator sim;
  obs::MetricSampler sampler(sim, sim::Duration::micros(10));

  int depth = 0;
  sampler.add_probe("depth", [&]() { return static_cast<double>(depth); });
  sim.after(sim::Duration::micros(25), [&]() { depth = 4; });

  sampler.start(at_us(50));
  sim.run_until(at_us(200));

  // Ticks at 10, 20, 30, 40, 50 us.
  EXPECT_EQ(sampler.ticks(), 5u);
  const obs::TimeSeries* series = sampler.find("depth");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 5u);
  EXPECT_EQ(series->at.front(), at_us(10));
  EXPECT_EQ(series->at.back(), at_us(50));
  EXPECT_DOUBLE_EQ(series->values[1], 0.0);
  EXPECT_DOUBLE_EQ(series->values[2], 4.0);
  EXPECT_DOUBLE_EQ(series->max(), 4.0);
  EXPECT_DOUBLE_EQ(series->mean(), 12.0 / 5.0);
}

TEST(MetricSampler, ProbeBlockFansOneCallAcrossSeries) {
  sim::Simulator sim;
  obs::MetricSampler sampler(sim, sim::Duration::micros(5));

  int calls = 0;
  sampler.add_probe_block({"a", "b", "c"}, [&]() {
    ++calls;
    return std::vector<double>{1.0, 2.0, 3.0};
  });
  sampler.start(at_us(20));
  sim.run_until(at_us(30));

  // One callable invocation per tick feeds all three series.
  EXPECT_EQ(calls, 4);
  ASSERT_NE(sampler.find("b"), nullptr);
  EXPECT_EQ(sampler.find("b")->size(), 4u);
  EXPECT_DOUBLE_EQ(sampler.find("b")->last(), 2.0);
  EXPECT_DOUBLE_EQ(sampler.find("c")->last(), 3.0);
}

TEST(MetricSampler, RejectsBadConfiguration) {
  sim::Simulator sim;
  EXPECT_THROW(obs::MetricSampler(sim, sim::Duration::zero()),
               std::invalid_argument);

  obs::MetricSampler sampler(sim, sim::Duration::micros(1));
  sampler.add_probe("x", []() { return 0.0; });
  sampler.start(at_us(3));
  EXPECT_THROW(sampler.add_probe("late", []() { return 0.0; }),
               std::logic_error);
}

TEST(ServerTelemetry, RingOverflowDropsReachTelemetry) {
  // Regression: RX-ring overflow was counted in run-end stats() but not in
  // the live telemetry() snapshot the metric sampler polls, so the sampled
  // "drops" series silently understated loss.
  sim::Simulator sim;
  core::ModelParams params = core::ModelParams::defaults();
  params.ring_capacity = 2;
  net::EthernetSwitch network(sim, params.switch_forward_latency);

  core::HostSpec spec;
  spec.system = core::SystemKind::kShinjuku;
  spec.worker_count = 1;
  spec.preemption_enabled = false;
  spec.params = params;
  core::ShinjukuServer server(sim, network, spec);

  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = server.ingress_mac();
  address.src_ip = net::Ipv4Address::from_index(1);
  address.dst_ip = server.ingress_ip();
  address.src_port = 1234;
  address.dst_port = server.port();

  proto::RequestMessage request;
  request.client_id = 1;
  request.work_ps = 5'000'000;  // 5 us
  for (int i = 0; i < 32; ++i) {
    request.request_id = static_cast<std::uint64_t>(i + 1);
    network.ingress().deliver(
        net::make_udp_datagram(address, request.serialize()));
  }
  sim.run_until(at_us(2'000));

  const core::ServerStats stats = server.stats(sim::Duration::millis(2));
  ASSERT_GT(stats.drops, 0u) << "burst did not overflow the 2-slot ring";
  EXPECT_EQ(server.telemetry().drops, stats.drops);
}

TEST(MetricSampler, WritesAlignedCsv) {
  sim::Simulator sim;
  obs::MetricSampler sampler(sim, sim::Duration::micros(10));
  sampler.add_probe("depth", []() { return 2.0; });
  sampler.add_probe("busy", []() { return 0.5; });
  sampler.start(at_us(20));
  sim.run_until(at_us(25));

  std::ostringstream out;
  sampler.write_csv(out);
  EXPECT_EQ(out.str(),
            "time_us,depth,busy\n"
            "10.000,2,0.5\n"
            "20.000,2,0.5\n");
}

}  // namespace
}  // namespace nicsched
