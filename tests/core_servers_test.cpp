// Integration tests: every server system wired into a full testbed.
#include <gtest/gtest.h>

#include <memory>

#include "core/offload_server.h"
#include "core/server_factory.h"
#include "core/shinjuku_server.h"
#include "core/testbed.h"
#include "fault/fault_schedule.h"
#include "net/ethernet_switch.h"
#include "overload/overload.h"
#include "workload/client.h"

namespace nicsched::core {
namespace {

std::shared_ptr<workload::ServiceDistribution> fixed_us(double us) {
  return std::make_shared<workload::FixedDistribution>(
      sim::Duration::micros(us));
}

ExperimentConfig base_config(SystemKind system) {
  ExperimentConfig config;
  config.system = system;
  config.worker_count = 4;
  config.outstanding_per_worker = 4;
  config.service = fixed_us(5.0);
  config.offered_rps = 150e3;  // ~20 % of 4-worker capacity at 5 us
  config.warmup = sim::Duration::millis(2);
  config.measure = sim::Duration::millis(30);
  config.drain = sim::Duration::millis(5);
  config.seed = 7;
  return config;
}

class AllSystems : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystems, ConservesRequestsAtModerateLoad) {
  const ExperimentConfig config = base_config(GetParam());
  const ExperimentResult result = run_experiment(config);

  // Open loop at 150k for 30 ms → ~4500 requests.
  EXPECT_GT(result.summary.issued, 3500u);
  // Every request issued in the window completed (the drain outlasts the
  // longest path at this load). No drops anywhere.
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  EXPECT_EQ(result.server.drops, 0u);
  EXPECT_GT(result.summary.achieved_rps, 0.9 * config.offered_rps);
}

TEST_P(AllSystems, DeterministicForFixedSeed) {
  const ExperimentConfig config = base_config(GetParam());
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  EXPECT_EQ(a.summary.completed, b.summary.completed);
  EXPECT_DOUBLE_EQ(a.summary.p99_us, b.summary.p99_us);
  EXPECT_DOUBLE_EQ(a.summary.mean_us, b.summary.mean_us);

  ExperimentConfig other_seed = config;
  other_seed.seed = 8;
  const ExperimentResult c = run_experiment(other_seed);
  EXPECT_NE(a.summary.completed, c.summary.completed);
}

TEST_P(AllSystems, LowLoadLatencyIsSane) {
  ExperimentConfig config = base_config(GetParam());
  config.offered_rps = 20e3;
  const ExperimentResult result = run_experiment(config);
  // Floor: ~4 us of wire both ways + 5 us service + server path. Nothing at
  // 20 kRPS on 4 workers should queue for long.
  EXPECT_GT(result.summary.p50_us, 6.5);
  EXPECT_LT(result.summary.p50_us, 30.0);
  EXPECT_LT(result.summary.p999_us, 100.0);
}

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystems,
    ::testing::Values(SystemKind::kShinjuku, SystemKind::kShinjukuOffload,
                      SystemKind::kRss, SystemKind::kFlowDirector,
                      SystemKind::kWorkStealing, SystemKind::kElasticRss,
                      SystemKind::kIdealNic, SystemKind::kRpcValet,
                      SystemKind::kRain),
    [](const ::testing::TestParamInfo<SystemKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OffloadPreemption, LongRequestsArePreemptedOncePerSlice) {
  ExperimentConfig config = base_config(SystemKind::kShinjukuOffload);
  config.service = fixed_us(50.0);
  config.time_slice = sim::Duration::micros(10);
  config.preemption_enabled = true;
  config.offered_rps = 20e3;
  const ExperimentResult result = run_experiment(config);

  ASSERT_GT(result.summary.completed, 100u);
  // 50 us of work in 10 us slices → 4-5 preemptions per request (the last
  // slice completes). The offload timer fires regardless of queue state.
  const double per_request = static_cast<double>(result.summary.preemptions) /
                             static_cast<double>(result.summary.completed);
  EXPECT_GT(per_request, 3.5);
  EXPECT_LT(per_request, 5.5);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
}

TEST(OffloadPreemption, DisabledMeansZero) {
  ExperimentConfig config = base_config(SystemKind::kShinjukuOffload);
  config.service = fixed_us(50.0);
  config.preemption_enabled = false;
  config.offered_rps = 20e3;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.server.preemptions, 0u);
  EXPECT_EQ(result.summary.preemptions, 0u);
}

TEST(InformedPreemption, ShinjukuSkipsPreemptionWhenQueueEmpty) {
  // §3.4.4: the offload worker's local timer fires even when no work waits;
  // the host dispatcher (and the ideal NIC) can check the queue first. At
  // low load the queue is almost always empty, so the informed systems
  // preempt almost never while offload preempts every slice.
  ExperimentConfig config = base_config(SystemKind::kShinjuku);
  config.service = fixed_us(50.0);
  config.time_slice = sim::Duration::micros(10);
  config.offered_rps = 10e3;

  const ExperimentResult shinjuku = run_experiment(config);
  config.system = SystemKind::kIdealNic;
  const ExperimentResult ideal = run_experiment(config);
  config.system = SystemKind::kShinjukuOffload;
  const ExperimentResult offload = run_experiment(config);

  ASSERT_GT(offload.summary.completed, 100u);
  EXPECT_GT(offload.server.preemptions, offload.summary.completed * 3);
  EXPECT_LT(shinjuku.server.preemptions, offload.server.preemptions / 20);
  EXPECT_LT(ideal.server.preemptions, offload.server.preemptions / 20);
}

TEST(Preemption, PreemptedWorkIsNeverLost) {
  // Heavy preemption churn at moderate-high load: every byte of work still
  // completes exactly once (remaining-work accounting is exact).
  ExperimentConfig config = base_config(SystemKind::kShinjukuOffload);
  config.service = std::make_shared<workload::BimodalDistribution>(
      sim::Duration::micros(5), sim::Duration::micros(100), 0.05);
  config.time_slice = sim::Duration::micros(10);
  config.offered_rps = 250e3;
  config.drain = sim::Duration::millis(10);
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.summary.completed, result.summary.issued);
  EXPECT_GT(result.summary.preemptions, 0u);
  EXPECT_EQ(result.server.drops, 0u);
}

TEST(WorkStealing, IdleCoresStealUnderRssImbalance) {
  ExperimentConfig config = base_config(SystemKind::kWorkStealing);
  // Few flows → RSS imbalance → the victimized cores' backlog gets stolen.
  config.flows_per_client = 2;
  config.client_machines = 2;
  config.offered_rps = 400e3;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.server.steals, 0u);

  ExperimentConfig rss = config;
  rss.system = SystemKind::kRss;
  const ExperimentResult no_steal = run_experiment(rss);
  EXPECT_EQ(no_steal.server.steals, 0u);
  // Stealing strictly improves tail latency under this imbalance.
  EXPECT_LT(result.summary.p99_us, no_steal.summary.p99_us);
}

TEST(RpcValet, PerfectBalancingStillLosesToPreemptionUnderDispersion) {
  // §2.2: "due to their lack of preemptive scheduling, ZygOS and RPCValet,
  // along with IX and MICA, demonstrate high tail latency for
  // highly-variable request service time distributions."
  auto dispersive = std::make_shared<workload::BimodalDistribution>(
      sim::Duration::micros(5), sim::Duration::micros(500), 0.02);

  ExperimentConfig rpcvalet = base_config(SystemKind::kRpcValet);
  rpcvalet.service = dispersive;
  rpcvalet.offered_rps = 350e3;
  const auto valet = run_experiment(rpcvalet);

  ExperimentConfig rss = base_config(SystemKind::kRss);
  rss.worker_count = rpcvalet.worker_count;
  rss.service = dispersive;
  rss.offered_rps = 350e3;
  const auto rss_result = run_experiment(rss);

  ExperimentConfig ideal = base_config(SystemKind::kIdealNic);
  ideal.service = dispersive;
  ideal.offered_rps = 350e3;
  ideal.time_slice = sim::Duration::micros(10);
  const auto preemptive = run_experiment(ideal);

  const double valet_short =
      valet.recorder.by_kind(0).quantile(0.99).to_micros();
  const double rss_short =
      rss_result.recorder.by_kind(0).quantile(0.99).to_micros();
  const double preemptive_short =
      preemptive.recorder.by_kind(0).quantile(0.99).to_micros();

  // Centralized balancing beats RSS's per-core queues...
  EXPECT_LT(valet_short, rss_short);
  // ...but without preemption, short requests still wait behind 500 us
  // requests; only the preemptive system protects them.
  EXPECT_GT(valet_short, 3.0 * preemptive_short);
  EXPECT_EQ(valet.server.preemptions, 0u);
}

TEST(ElasticRss, RebalancesUnderFlowImbalanceAndImprovesTail) {
  ExperimentConfig config = base_config(SystemKind::kElasticRss);
  config.client_machines = 2;
  config.flows_per_client = 4;  // 8 flows over 4 rings: lumpy
  config.offered_rps = 400e3;
  const ExperimentResult elastic = run_experiment(config);

  ExperimentConfig rss = config;
  rss.system = SystemKind::kRss;
  const ExperimentResult plain = run_experiment(rss);

  EXPECT_LT(elastic.summary.p99_us, plain.summary.p99_us);
  EXPECT_EQ(elastic.summary.completed, elastic.summary.issued);
}

TEST(ElasticRss, NoHarmWhenAlreadyBalanced) {
  ExperimentConfig config = base_config(SystemKind::kElasticRss);
  config.flows_per_client = 64;
  config.offered_rps = 100e3;  // light, well-spread load
  const ExperimentResult elastic = run_experiment(config);
  ExperimentConfig rss = config;
  rss.system = SystemKind::kRss;
  const ExperimentResult plain = run_experiment(rss);
  EXPECT_LT(elastic.summary.p99_us, plain.summary.p99_us * 1.2);
  EXPECT_EQ(elastic.summary.completed, elastic.summary.issued);
}

TEST(RunToCompletion, BaselinesNeverPreempt) {
  for (const SystemKind system :
       {SystemKind::kRss, SystemKind::kFlowDirector,
        SystemKind::kWorkStealing, SystemKind::kElasticRss}) {
    ExperimentConfig config = base_config(system);
    config.service = std::make_shared<workload::BimodalDistribution>(
        sim::Duration::micros(5), sim::Duration::micros(100), 0.05);
    const ExperimentResult result = run_experiment(config);
    EXPECT_EQ(result.server.preemptions, 0u) << to_string(system);
  }
}

TEST(OffloadServer, RespectsOutstandingLimit) {
  // Direct wiring so the dispatcher's status table can be sampled live.
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);

  HostSpec spec;
  spec.system = SystemKind::kShinjukuOffload;
  spec.worker_count = 2;
  spec.outstanding_per_worker = 3;
  spec.preemption_enabled = false;
  spec.params = params;
  ShinjukuOffloadServer server(sim, network, spec);

  workload::ClientMachine::Config client_config;
  client_config.client_id = 1;
  client_config.mac = net::MacAddress::from_index(1);
  client_config.ip = net::Ipv4Address::from_index(1);
  client_config.server_mac = server.ingress_mac();
  client_config.server_ip = server.ingress_ip();
  client_config.server_port = server.port();
  workload::ClientMachine client(
      sim, network, client_config, fixed_us(2.0),
      std::make_unique<workload::PoissonArrivals>(800e3),  // overload
      sim::Rng(3));
  client.start(sim::TimePoint::origin() + sim::Duration::millis(5));

  std::uint32_t max_outstanding = 0;
  for (int i = 1; i <= 500; ++i) {
    sim.at(sim::TimePoint::origin() + sim::Duration::micros(i * 10), [&]() {
      for (std::size_t w = 0; w < 2; ++w) {
        max_outstanding = std::max(
            max_outstanding, server.core_status().entry(w).outstanding);
      }
    });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(6));
  EXPECT_EQ(max_outstanding, 3u);  // overloaded, so the limit is reached...
  EXPECT_LE(max_outstanding, 3u);  // ...and never exceeded
}

TEST(OffloadServer, SenderCoreCountIsValidated) {
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);
  HostSpec spec;
  spec.system = SystemKind::kShinjukuOffload;
  spec.params = params;
  spec.sender_cores = 0;
  EXPECT_THROW(ShinjukuOffloadServer(sim, network, spec),
               std::invalid_argument);
  spec.sender_cores = 6;  // only 5 ARM cores remain beside net/D1/D3
  EXPECT_THROW(ShinjukuOffloadServer(sim, network, spec),
               std::invalid_argument);
}

TEST(OffloadServer, ParallelSendersConserveAndLiftThroughput) {
  ExperimentConfig probe = base_config(SystemKind::kShinjukuOffload);
  probe.service = fixed_us(1.0);
  probe.preemption_enabled = false;
  probe.outstanding_per_worker = 5;
  probe.worker_count = 8;
  probe.offered_rps = 3.0e6;  // far above the 1-sender ceiling (~1.3 MRPS)

  // Drive the server directly with one raw client, so each run compares
  // answered requests at the same fixed overload with a different number
  // of D2 sender cores (HostSpec::sender_cores).
  auto run_with_senders = [&](std::size_t senders) {
    sim::Simulator sim;
    net::EthernetSwitch network(sim, probe.params.switch_forward_latency);
    HostSpec spec;
    spec.system = SystemKind::kShinjukuOffload;
    spec.worker_count = probe.worker_count;
    spec.outstanding_per_worker = probe.outstanding_per_worker;
    spec.preemption_enabled = false;
    spec.sender_cores = senders;
    spec.params = probe.params;
    ShinjukuOffloadServer server(sim, network, spec);

    workload::ClientMachine::Config client_config;
    client_config.client_id = 1;
    client_config.mac = net::MacAddress::from_index(1);
    client_config.ip = net::Ipv4Address::from_index(1);
    client_config.server_mac = server.ingress_mac();
    client_config.server_ip = server.ingress_ip();
    client_config.server_port = server.port();
    workload::ClientMachine client(
        sim, network, client_config, probe.service,
        std::make_unique<workload::PoissonArrivals>(probe.offered_rps),
        sim::Rng(9));
    client.start(sim::TimePoint::origin() + sim::Duration::millis(20));
    sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(24));
    const ServerStats stats = server.stats(sim::Duration::millis(24));
    // Overloaded on purpose: unanswered requests queue, and at 3 MRPS the
    // client-facing RX ring legitimately overflows (the networker parses at
    // ~2.5 MRPS) — but everything *accepted* must be answered or queued.
    EXPECT_LE(stats.responses_sent, stats.requests_received);
    return client.received();
  };

  const std::uint64_t with_one = run_with_senders(1);
  const std::uint64_t with_three = run_with_senders(3);
  EXPECT_GT(with_three, with_one * 5 / 4);
}

TEST(OffloadServer, MalformedTrafficIsCountedNotCrashing) {
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);
  HostSpec spec;
  spec.params = params;
  ShinjukuOffloadServer server(sim, network, spec);

  // A valid UDP datagram whose payload is not a protocol message.
  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = server.ingress_mac();
  address.src_ip = net::Ipv4Address::from_index(1);
  address.dst_ip = server.ingress_ip();
  address.src_port = 1234;
  address.dst_port = server.port();
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  network.ingress().deliver(net::make_udp_datagram(address, garbage));

  // And one to a wrong port.
  address.dst_port = 9;
  network.ingress().deliver(net::make_udp_datagram(address, garbage));

  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(1));
  const ServerStats stats = server.stats(sim::Duration::millis(1));
  EXPECT_EQ(stats.requests_received, 0u);
  EXPECT_EQ(stats.drops, 2u);
}

TEST(OffloadServer, FeedbackStalenessReachesTheAdaptiveKGovernor) {
  // Repeated 300 us stalls back one worker up, so its sojourn samples drive
  // the adaptive-K governor. A stale fold must change the run (the knob
  // reaches the offload family) without disabling the loop.
  overload::OverloadParams informed;
  informed.enabled = true;
  fault::FaultSchedule stalls;
  for (int i = 0; i < 4; ++i) {
    stalls.stall_worker(
        sim::TimePoint::origin() + sim::Duration::millis(10 + i), 0,
        sim::Duration::micros(300));
  }
  const auto base = ExperimentConfig::offload()
                        .workers(4)
                        .outstanding(4)
                        .fixed_5us()
                        .load(600e3)
                        .samples(10'000)
                        .with_seed(1)
                        .with_overload(informed)
                        .with_faults(stalls);
  const auto fresh = run_experiment(
      ExperimentConfig(base).with_feedback_staleness(sim::Duration::zero()));
  const auto stale = run_experiment(
      ExperimentConfig(base).with_feedback_staleness(
          sim::Duration::micros(100)));
  EXPECT_NE(fresh.events_fired, stale.events_fired)
      << "feedback staleness never reached the offload governor";
  for (const ExperimentResult* result : {&fresh, &stale}) {
    EXPECT_GT(result->server.overload.k_shrinks, 0u);
    const auto& t = result->clients;
    EXPECT_EQ(t.sent, t.completed + t.rejected + t.expired + t.abandoned +
                          t.outstanding);
  }
}

class EveryFamily : public ::testing::TestWithParam<SystemKind> {};

TEST_P(EveryFamily, TelemetryAndStatsCountTheSameDrops) {
  // Each family defines its drop count once; the live telemetry and the
  // run-end stats must agree on it once the traffic has settled.
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);
  HostSpec spec;
  spec.system = GetParam();
  spec.worker_count = 2;
  const auto server = make_host_server(spec, sim, network);

  net::DatagramAddress address;
  address.src_mac = net::MacAddress::from_index(1);
  address.dst_mac = server->ingress_mac();
  address.src_ip = net::Ipv4Address::from_index(1);
  address.dst_ip = server->ingress_ip();
  address.src_port = 1234;
  address.dst_port = server->port();
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  for (int i = 0; i < 3; ++i) {
    address.src_port = static_cast<std::uint16_t>(1234 + i);
    network.ingress().deliver(net::make_udp_datagram(address, garbage));
  }

  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(1));
  const ServerStats stats = server->stats(sim::Duration::millis(1));
  EXPECT_EQ(stats.drops, 3u);
  EXPECT_EQ(server->telemetry().drops, stats.drops);
}

INSTANTIATE_TEST_SUITE_P(
    Families, EveryFamily,
    ::testing::Values(SystemKind::kShinjuku, SystemKind::kShinjukuOffload,
                      SystemKind::kRss, SystemKind::kIdealNic,
                      SystemKind::kRain),
    [](const ::testing::TestParamInfo<SystemKind>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShinjukuServer, FifoOrderWithSingleWorker) {
  // One worker, uniform arrivals faster than service: responses must come
  // back in request order (centralized FIFO queue).
  sim::Simulator sim;
  const ModelParams params = ModelParams::defaults();
  net::EthernetSwitch network(sim, params.switch_forward_latency);

  HostSpec spec;
  spec.system = SystemKind::kShinjuku;
  spec.worker_count = 1;
  spec.preemption_enabled = false;
  spec.params = params;
  ShinjukuServer server(sim, network, spec);

  workload::ClientMachine::Config client_config;
  client_config.client_id = 1;
  client_config.mac = net::MacAddress::from_index(1);
  client_config.ip = net::Ipv4Address::from_index(1);
  client_config.server_mac = server.ingress_mac();
  client_config.server_ip = server.ingress_ip();
  client_config.server_port = server.port();
  workload::ClientMachine client(
      sim, network, client_config, fixed_us(5.0),
      std::make_unique<workload::UniformArrivals>(100e3), sim::Rng(4));

  std::vector<std::uint64_t> completion_order;
  client.set_on_response([&](const workload::ResponseRecord& record) {
    completion_order.push_back(record.request_id);
  });
  client.start(sim::TimePoint::origin() + sim::Duration::millis(2));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(10));

  ASSERT_GT(completion_order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(completion_order.begin(), completion_order.end()));
}

TEST(Testbed, ValidatesConfiguration) {
  ExperimentConfig config;  // service unset
  config.offered_rps = 1000;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config.service = fixed_us(1.0);
  config.offered_rps = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);

  config.offered_rps = 1000;
  config.client_machines = 0;
  EXPECT_THROW(run_experiment(config), std::invalid_argument);
}

TEST(Testbed, SweepReturnsOnePointPerLoad) {
  ExperimentConfig config = base_config(SystemKind::kRss);
  config.measure = sim::Duration::millis(5);
  const auto summaries = sweep_summaries(config, {50e3, 100e3, 150e3});
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_DOUBLE_EQ(summaries[0].offered_rps, 50e3);
  EXPECT_DOUBLE_EQ(summaries[2].offered_rps, 150e3);
  EXPECT_LT(summaries[0].achieved_rps, summaries[2].achieved_rps);
}

}  // namespace
}  // namespace nicsched::core
