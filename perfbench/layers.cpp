// The traced per-layer pass: kernels that time one layer through its public
// functions, per-request counts from the modelled run, captured spans, shard
// speedups, and the attribution of host time per request.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "bench.h"
#include "core/task_queue.h"
#include "fault/chaos_schedule.h"
#include "hw/cpu_core.h"
#include "net/checksum.h"
#include "net/ethernet_switch.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/rdma.h"
#include "obs/capture.h"
#include "obs/span_recorder.h"
#include "proto/messages.h"
#include "rack/tor_scheduler.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "stats/recorder.h"
#include "stats/response_log.h"
#include "workload/arrival.h"
#include "workload/distribution.h"

namespace nicsched::perfbench {

namespace {

/// Keeps a kernel's result observable so the timed work is not elided.
volatile std::uint64_t g_sink = 0;

/// Median nanoseconds per operation of `kernel(ops)`, which returns the wall
/// seconds its `ops` operations took (set-up excluded). Batches repeat until
/// `budget` seconds have passed, at least five times.
double ns_per_op(double budget, std::uint64_t ops,
                 double (*kernel)(std::uint64_t)) {
  std::vector<double> per_op;
  WallTimer timer;
  while (timer.seconds() < budget || per_op.size() < 5) {
    per_op.push_back(kernel(ops) * 1e9 / static_cast<double>(ops));
  }
  return median(per_op);
}

net::DatagramAddress frame_address() {
  return net::DatagramAddress{net::MacAddress::from_index(1),
                              net::MacAddress::from_index(2),
                              net::Ipv4Address::from_index(1),
                              net::Ipv4Address::from_index(2), 1111, 2222};
}

const std::vector<std::uint8_t>& payload_64() {
  static const std::vector<std::uint8_t> payload(64, 0xab);
  return payload;
}

proto::RequestDescriptor sample_descriptor(std::uint64_t id) {
  proto::RequestDescriptor d;
  d.request_id = id;
  d.client_id = 3;
  d.kind = 0;
  d.remaining_ps = 5'000'000;
  d.total_ps = 5'000'000;
  d.client_mac = net::MacAddress::from_index(3);
  d.client_ip = net::Ipv4Address::from_index(3);
  d.client_port = 4000;
  return d;
}

// ---- sim ------------------------------------------------------------------

/// 64 self-rescheduling timer chains; one op = one schedule + fire.
double sim_event_kernel(std::uint64_t ops) {
  struct Chain {
    sim::Simulator* sim = nullptr;
    std::uint64_t remaining = 0;
    sim::Duration step;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      sim->after(step, [this]() { fire(); });
    }
  };
  sim::Simulator sim;
  std::vector<Chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, ops / chains.size(),
                      sim::Duration::nanos(static_cast<std::int64_t>(100 + 7 * i))};
    sim.after(chains[i].step, [chain = &chains[i]]() { chain->fire(); });
  }
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

/// The cancel-and-rearm timeout idiom; one op = cancel the guard, arm a new
/// guard and the next tick, fire the tick.
double sim_churn_kernel(std::uint64_t ops) {
  struct Chain {
    sim::Simulator* sim = nullptr;
    std::uint64_t remaining = 0;
    sim::EventHandle guard;
    void fire() {
      guard.cancel();
      if (remaining == 0) return;
      --remaining;
      guard = sim->after(sim::Duration::micros(50), []() {});
      sim->after(sim::Duration::nanos(200), [this]() { fire(); });
    }
  };
  sim::Simulator sim;
  std::vector<Chain> chains(32);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, ops / chains.size(), {}};
    sim.after(sim::Duration::nanos(static_cast<std::int64_t>(100 + 13 * i)),
              [chain = &chains[i]]() { chain->fire(); });
  }
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

// ---- net ------------------------------------------------------------------

double udp_build_kernel(std::uint64_t ops) {
  const net::DatagramAddress address = frame_address();
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const net::Packet packet = net::make_udp_datagram(address, payload_64());
    g_sink = g_sink + packet.size();
  }
  return timer.seconds();
}

double udp_parse_kernel(std::uint64_t ops) {
  const net::Packet packet = net::make_udp_datagram(frame_address(), payload_64());
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto view = net::parse_udp_datagram(packet);
    g_sink = g_sink + (view ? view->payload.size() : 0);
  }
  return timer.seconds();
}

double checksum_kernel(std::uint64_t ops) {
  const net::Packet packet = net::make_udp_datagram(frame_address(), payload_64());
  const std::span<const std::uint8_t> frame = packet.bytes();
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    g_sink = g_sink + net::internet_checksum(frame);
  }
  return timer.seconds();
}

struct CountingSink : net::PacketSink {
  void deliver(net::Packet packet) override {
    g_sink = g_sink + packet.size();
  }
};

/// Pre-built frames injected every 150 ns; one op = switch decision, wire
/// serialization and delivery to the sink.
double switch_hop_kernel(std::uint64_t ops) {
  sim::Simulator sim;
  net::EthernetSwitch fabric(sim, sim::Duration::nanos(300));
  CountingSink sink;
  fabric.attach(net::MacAddress::from_index(2), sink, sim::Duration::nanos(500),
                10.0);
  std::vector<net::Packet> frames;
  frames.reserve(ops);
  for (std::uint64_t i = 0; i < ops; ++i) {
    frames.push_back(net::make_udp_datagram(frame_address(), payload_64()));
  }
  struct Source {
    sim::Simulator* sim;
    net::PacketSink* ingress;
    std::vector<net::Packet>* frames;
    std::size_t next = 0;
    void send() {
      if (next == frames->size()) return;
      ingress->deliver(std::move((*frames)[next++]));
      sim->after(sim::Duration::nanos(150), [this]() { send(); });
    }
  } source{&sim, &fabric.ingress(), &frames};
  sim.defer([&source]() { source.send(); });
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

/// One op = post_write of a 64 B run-queue entry, the delivery event it
/// triggers, and the remote poll.
double rdma_write_kernel(std::uint64_t ops) {
  sim::Simulator sim;
  net::RdmaQueuePair qp(sim, net::RdmaQueuePair::Config{});
  qp.set_on_receive([&qp]() {
    auto payload = qp.poll();
    g_sink = g_sink + (payload ? payload->size() : 0);
  });
  struct Poster {
    sim::Simulator* sim;
    net::RdmaQueuePair* qp;
    std::uint64_t remaining;
    void post() {
      if (remaining == 0) return;
      --remaining;
      const sim::Duration cost = qp->post_write(payload_64());
      sim->after(cost, [this]() { post(); });
    }
  } poster{&sim, &qp, ops};
  sim.defer([&poster]() { poster.post(); });
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

// ---- proto ----------------------------------------------------------------

double proto_encode_kernel(std::uint64_t ops) {
  std::vector<std::uint8_t> out;
  proto::RequestDescriptor d = sample_descriptor(1);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    d.request_id = i;
    d.serialize_into(proto::MessageType::kAssignment, out);
    g_sink = g_sink + out.size();
  }
  return timer.seconds();
}

double proto_decode_kernel(std::uint64_t ops) {
  const std::vector<std::uint8_t> bytes =
      sample_descriptor(7).serialize(proto::MessageType::kAssignment);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto d =
        proto::RequestDescriptor::parse(bytes, proto::MessageType::kAssignment);
    g_sink = g_sink + (d ? d->request_id : 0);
  }
  return timer.seconds();
}

// ---- hw -------------------------------------------------------------------

/// One op = a 100 ns serialized CpuCore operation chained from the last.
double cpu_run_kernel(std::uint64_t ops) {
  sim::Simulator sim;
  hw::CpuCore core(sim, hw::CpuCore::Config{});
  struct Chain {
    hw::CpuCore* core;
    std::uint64_t remaining;
    void next() {
      if (remaining == 0) return;
      --remaining;
      core->run(sim::Duration::nanos(100), [this]() { next(); });
    }
  } chain{&core, ops};
  sim.defer([&chain]() { chain.next(); });
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

/// One op = a preemptible task interrupted 1 us in, handler entry, and the
/// remainder resumed.
double preempt_kernel(std::uint64_t ops) {
  sim::Simulator sim;
  hw::CpuCore core(sim, hw::CpuCore::Config{});
  struct Loop {
    sim::Simulator* sim;
    hw::CpuCore* core;
    std::uint64_t remaining;
    void start(sim::Duration work) {
      core->run_preemptible(work, []() {});
      if (remaining == 0) return;
      --remaining;
      sim->after(sim::Duration::micros(1), [this]() {
        core->interrupt(sim::Duration::nanos(200),
                        [this](sim::Duration left) { start(left); });
      });
    }
  } loop{&sim, &core, ops};
  sim.defer([&loop]() { loop.start(sim::Duration::seconds(1.0)); });
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

// ---- core, rack, fault, stats, workload ------------------------------------

double task_queue_kernel(std::uint64_t ops) {
  core::TaskQueue queue;
  std::vector<proto::RequestDescriptor> pending;
  for (std::uint64_t i = 0; i < 64; ++i) pending.push_back(sample_descriptor(i));
  for (const auto& d : pending) queue.push_new(d, sim::TimePoint::origin());
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    queue.push_new(pending[i % pending.size()], sim::TimePoint::origin());
    const auto popped = queue.pop();
    g_sink = g_sink + (popped ? popped->request_id : 0);
  }
  return timer.seconds();
}

/// Request frames to the VIP of a 4-host p2c ToR, one every 200 ns; one op
/// = TorScheduler::deliver plus the downlink hop to the chosen host.
double rack_steer_kernel(std::uint64_t ops) {
  sim::Simulator sim;
  rack::TorParams params;
  params.policy = rack::TorPolicy::kPowerOfTwo;
  rack::TorScheduler tor(sim, params);
  std::vector<CountingSink> hosts(4);
  for (std::uint32_t h = 0; h < hosts.size(); ++h) {
    tor.add_host(net::MacAddress::from_index(100 + h),
                 net::Ipv4Address::from_index(100 + h), hosts[h]);
  }
  std::vector<net::Packet> frames;
  frames.reserve(ops);
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < ops; ++i) {
    proto::RequestMessage request;
    request.request_id = i + 1;
    request.client_id = 1;
    request.work_ps = 5'000'000;
    request.serialize_into(payload);
    net::DatagramAddress address{
        net::MacAddress::from_index(1), tor.vip_mac(),
        net::Ipv4Address::from_index(1), tor.vip_ip(),
        static_cast<std::uint16_t>(10000 + i % 64), 9000};
    frames.push_back(net::make_udp_datagram(address, payload));
  }
  struct Source {
    sim::Simulator* sim;
    rack::TorScheduler* tor;
    std::vector<net::Packet>* frames;
    std::size_t next = 0;
    void send() {
      if (next == frames->size()) return;
      tor->deliver(std::move((*frames)[next++]));
      sim->after(sim::Duration::nanos(200), [this]() { send(); });
    }
  } source{&sim, &tor, &frames};
  sim.defer([&source]() { source.send(); });
  WallTimer timer;
  sim.run();
  return timer.seconds();
}

double chaos_gen_kernel(std::uint64_t ops) {
  fault::ChaosOptions options;
  options.host_count = 4;
  options.worker_count = 2;
  options.start = sim::TimePoint::origin();
  options.end = sim::TimePoint::origin() + sim::Duration::millis(100);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    options.seed = i;
    g_sink = g_sink + (fault::make_chaos_schedule(options).empty() ? 0 : 1);
  }
  return timer.seconds();
}

double recorder_kernel(std::uint64_t ops) {
  stats::LatencyRecorder recorder;
  recorder.set_window(sim::TimePoint::origin(), sim::TimePoint::max());
  workload::ResponseRecord record;
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    record.request_id = i;
    record.sent_at = sim::TimePoint::origin() +
                     sim::Duration::nanos(static_cast<std::int64_t>(i));
    record.received_at =
        record.sent_at +
        sim::Duration::nanos(static_cast<std::int64_t>(5000 + (i * 7919) % 20000));
    recorder.record(record);
  }
  g_sink = g_sink + recorder.completed_in_window();
  return timer.seconds();
}

double workload_sample_kernel(std::uint64_t ops) {
  workload::BimodalDistribution service(sim::Duration::micros(5),
                                        sim::Duration::micros(100), 0.005);
  workload::PoissonArrivals arrivals(500e3);
  sim::Rng rng(17);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto sample = service.sample(rng);
    const sim::Duration gap = arrivals.next_gap(rng);
    g_sink = g_sink + static_cast<std::uint64_t>((sample.work + gap).to_picos());
  }
  return timer.seconds();
}

double per_kreq(std::uint64_t count, std::uint64_t sent) {
  return 1000.0 * static_cast<double>(count) / static_cast<double>(sent);
}

std::string metric_token(std::string text) {
  for (char& c : text) {
    if (c == '-') c = '_';
  }
  return text;
}

/// Wall seconds of one run_experiment call on `config` at `shards` shards.
double timed_run(core::ExperimentConfig config, std::size_t shards) {
  config.shards = shards;
  WallTimer timer;
  core::run_experiment(config);
  return timer.seconds();
}

/// Every layer kernel, each given an equal share of `seconds`; values are
/// nanoseconds per operation. Op counts keep one batch in the milliseconds.
std::vector<Metric> layer_kernels(double seconds) {
  struct Kernel {
    const char* name;
    std::uint64_t ops;
    double (*run)(std::uint64_t);
  };
  const Kernel kernels[] = {
      {"sim.event_ns", 200'000, sim_event_kernel},
      {"sim.churn_ns", 100'000, sim_churn_kernel},
      {"net.udp_build_ns", 100'000, udp_build_kernel},
      {"net.udp_parse_ns", 100'000, udp_parse_kernel},
      {"net.checksum_ns", 200'000, checksum_kernel},
      {"net.switch_hop_ns", 50'000, switch_hop_kernel},
      {"net.rdma_write_ns", 100'000, rdma_write_kernel},
      {"proto.encode_ns", 200'000, proto_encode_kernel},
      {"proto.decode_ns", 200'000, proto_decode_kernel},
      {"hw.cpu_run_ns", 100'000, cpu_run_kernel},
      {"hw.preempt_ns", 50'000, preempt_kernel},
      {"core.task_queue_ns", 200'000, task_queue_kernel},
      {"rack.steer_ns", 50'000, rack_steer_kernel},
      {"fault.chaos_gen_ns", 5'000, chaos_gen_kernel},
      {"stats.record_ns", 200'000, recorder_kernel},
      {"workload.sample_ns", 200'000, workload_sample_kernel},
  };
  const double budget = seconds / static_cast<double>(std::size(kernels));
  std::vector<Metric> metrics;
  for (const Kernel& k : kernels) {
    metrics.push_back({k.name, ns_per_op(budget, k.ops, k.run), "ns"});
  }
  return metrics;
}

}  // namespace

PassResult run_per_layer(const Workload& workload, std::uint64_t seed,
                         double seconds) {
  PassResult pass;
  const core::ExperimentConfig config = workload.config(seed);

  // Untraced reference: a warm-up run, then a timed one that also counts
  // the frame buffers the run draws from the packet pool.
  const core::ExperimentResult warm = core::run_experiment(config);
  pass.digest = model_digest(warm);
  pass.record(check_run(warm, golden_digest(workload.name, seed),
                        "recorded golden"));
  const std::uint64_t acquired_before =
      net::PacketBufferPool::instance().stats().acquired;
  WallTimer untraced_timer;
  const core::ExperimentResult untraced = core::run_experiment(config);
  const double untraced_wall = untraced_timer.seconds();
  const std::uint64_t frame_buffers =
      net::PacketBufferPool::instance().stats().acquired - acquired_before;
  pass.record(check_run(untraced, pass.digest, "warm-up run"));

  // Traced run: spans and metric sampling on, which must not move the
  // modelled results.
  obs::CaptureOptions capture;
  capture.enabled = true;
  core::ExperimentConfig traced_config = config;
  traced_config.capture = capture;
  stats::ResponseLog log(4'000'000);
  traced_config.response_log = &log;
  WallTimer traced_timer;
  const core::ExperimentResult traced = core::run_experiment(traced_config);
  const double traced_wall = traced_timer.seconds();
  std::vector<std::string> traced_failures =
      check_run(traced, pass.digest, "untraced run");
  const obs::SpanRecorder& spans = traced.capture->spans();
  // Hedged copies and client retries put two lifecycles under one request
  // id, which the one-open-span-per-request taxonomy cannot tile; without
  // them a healthy trace has no violations.
  const bool duplicate_copies =
      (config.rack && config.rack->hedge) ||
      (config.overload && config.overload->enabled &&
       config.overload->retry_budget > 0);
  if (!duplicate_copies && spans.violations() != 0) {
    traced_failures.push_back("span tiling violations in the traced run");
  }
  const std::vector<obs::RequestLifecycle> lifecycles = spans.completed();
  std::uint64_t span_count = 0;
  std::vector<sim::Duration> kind_total(obs::kSpanKindCount);
  for (const obs::RequestLifecycle& life : lifecycles) {
    span_count += life.spans.size();
    for (const obs::Span& span : life.spans) {
      kind_total[static_cast<std::size_t>(span.kind)] += span.duration();
    }
  }
  if (!duplicate_copies) {
    // Span sums per request equal the client-measured latency.
    std::map<std::uint64_t, const obs::RequestLifecycle*> by_id;
    for (const auto& life : lifecycles) by_id[life.request_id] = &life;
    std::uint64_t checked = 0;
    std::uint64_t mismatched = 0;
    for (const auto& row : log.records()) {
      const auto it = by_id.find(row.request_id);
      if (it == by_id.end()) continue;
      ++checked;
      if (it->second->total() != row.latency()) ++mismatched;
    }
    if (checked == 0 || mismatched != 0) {
      traced_failures.push_back(
          "span sums differ from client latency on " +
          std::to_string(mismatched) + " of " + std::to_string(checked) +
          " requests");
    }
  }
  std::cout << "info  " << workload.name << " seed=" << seed
            << " traced_digest_matches_untraced="
            << (model_digest(traced) == pass.digest ? "yes" : "no")
            << " traced_lifecycles=" << lifecycles.size()
            << " span_double_begins=" << spans.double_begins()
            << " span_unmatched_ends=" << spans.unmatched_ends()
            << " span_time_regressions=" << spans.time_regressions() << "\n";
  pass.record(std::move(traced_failures));

  // Shard speedups on the rain rack: informational, threads in use.
  core::ExperimentConfig short_rack =
      find_workload("rain_rack_bimodal")->config(seed);
  short_rack.measure = sim::Duration::millis(20);
  timed_run(short_rack, 1);
  const double serial = timed_run(short_rack, 1);
  const double shard2 = timed_run(short_rack, 2);
  const double shard4 = timed_run(short_rack, 4);

  const double reference_before = reference_ops_per_s();
  const std::vector<Metric> kernels = layer_kernels(seconds);
  const double host_speed =
      std::sqrt(reference_before * reference_ops_per_s()) /
      kReferenceNominalOpsPerS;
  const auto kernel = [&kernels](const std::string& name) {
    for (const Metric& m : kernels) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };

  const core::ExperimentResult::ClientTotals& c = untraced.clients;
  const core::ServerStats& s = untraced.server;
  const double sent = static_cast<double>(c.sent);
  const double events_per_req = static_cast<double>(untraced.events_fired) / sent;
  const double frames_per_req = static_cast<double>(frame_buffers) / sent;
  const double wall_ns_per_req = untraced_wall * 1e9 / sent;
  const double sim_ns_per_req = kernel("sim.event_ns") * events_per_req;
  const double net_ns_per_req =
      frames_per_req * (kernel("net.udp_build_ns") + kernel("net.udp_parse_ns"));

  pass.metrics = kernels;
  const auto add = [&pass](std::string name, double value, std::string unit) {
    pass.metrics.push_back({std::move(name), value, std::move(unit)});
  };
  add("sim.events_per_req", events_per_req, "count");
  add("sim.shard2_speedup", serial / shard2, "ratio");
  add("sim.shard4_speedup", serial / shard4, "ratio");
  add("net.frames_per_req", frames_per_req, "count");
  add("core.preemptions_per_kreq", per_kreq(s.preemptions, c.sent), "count");
  add("core.retransmits_per_kreq",
      per_kreq(s.reliability.retransmits + s.reliability.note_retransmits,
               c.sent),
      "count");
  add("core.redispatched_per_kreq", per_kreq(s.reliability.redispatched, c.sent),
      "count");
  add("core.queue_max_depth", static_cast<double>(s.queue_max_depth), "count");
  const rack::RackStats no_rack;
  const rack::RackStats& r = untraced.rack ? *untraced.rack : no_rack;
  add("rack.resteered_per_kreq", per_kreq(r.requests_resteered, c.sent), "count");
  add("rack.hedges_per_kreq", per_kreq(r.hedges_sent, c.sent), "count");
  add("rack.duplicates_suppressed", static_cast<double>(r.duplicates_suppressed),
      "count");
  add("overload.rejected_per_kreq", per_kreq(c.rejected, c.sent), "count");
  add("overload.shed_per_kreq", per_kreq(s.overload.shed_expired, c.sent), "count");
  add("overload.retries_per_kreq", per_kreq(c.retries, c.sent), "count");
  add("overload.k_shrinks", static_cast<double>(s.overload.k_shrinks), "count");
  double lc_p999 = 0.0;
  double be_p999 = 0.0;
  for (const auto& t : untraced.tenants) {
    if (t.spec.name == "lc") lc_p999 = t.summary.p999_us;
    if (t.spec.name == "be") be_p999 = t.summary.p999_us;
  }
  add("tenant.lc_p999_us", lc_p999, "us");
  add("tenant.be_p999_us", be_p999, "us");
  add("obs.capture_wall_ratio", traced_wall / untraced_wall, "ratio");
  const double lives = static_cast<double>(std::max<std::size_t>(1, lifecycles.size()));
  add("obs.spans_per_req", static_cast<double>(span_count) / lives, "count");
  add("obs.span_violations", static_cast<double>(spans.violations()), "count");
  for (std::uint16_t k = 0; k < obs::kSpanKindCount; ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    std::string name = "obs.span.";
    name += metric_token(obs::to_string(kind));
    name += "_us";
    add(name, kind_total[k].to_micros() / lives, "us");
  }
  add("sim.host_ns_per_req", sim_ns_per_req, "ns");
  add("net.host_ns_per_req", net_ns_per_req, "ns");
  add("host.speed", host_speed, "ratio");
  add("host.wall_ns_per_req", wall_ns_per_req, "ns");
  add("host.unattributed_ns_per_req",
      wall_ns_per_req - sim_ns_per_req - net_ns_per_req, "ns");
  return pass;
}

}  // namespace nicsched::perfbench
