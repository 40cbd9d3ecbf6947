#include "core/distributed_server.h"

#include "obs/span.h"

#include <stdexcept>
#include <utility>

namespace nicsched::core {

namespace {

constexpr std::uint32_t kPfIndex = 3000;
constexpr std::uint16_t kWorkerPort = 8082;
// kElasticRss: the control loop's cadence, and the ring-depth difference
// that triggers moving one indirection entry from hottest to coldest ring.
constexpr sim::Duration kRebalancePeriod = sim::Duration::micros(20);
constexpr std::size_t kRebalanceThreshold = 4;

net::Nic::Config nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "rss-nic";
  config.rx_latency = params.host_nic_rx;
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

}  // namespace

// ----------------------------------------------------------------- Worker

/// One run-to-completion core: polls its own ring, does all packet and
/// request processing in place (IX's model), optionally steals when idle.
class DistributedServer::Worker {
 public:
  Worker(DistributedServer& server, std::size_t id)
      : server_(server),
        id_(id),
        core_(server.sim_, [&] {
          hw::CpuCore::Config config;
          config.name = "rtc-worker" + std::to_string(id);
          config.frequency = server.spec_.params.host_frequency;
          return config;
        }()),
        admission_(server.spec_.overload) {
    if (server.spec_.tenant.enabled) {
      const auto& tenants = server.spec_.tenant.tenants;
      tenant_stats_.resize(std::max<std::size_t>(tenants.size(), 1));
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        tenant_stats_[i].id = tenants[i].id;
      }
      if (server.spec_.overload.enabled) {
        tenant_admission_ = std::make_unique<tenant::TenantAdmission>(
            server.spec_.tenant, server.spec_.overload);
      }
    }
    ring().set_on_packet([this]() {
      if (idle_) start_next();
    });
  }

  hw::CpuCore& core() { return core_; }
  WorkerCounters counters() const {
    return WorkerCounters{responses_sent_, 0, 0, ddio_, core_.stats().busy};
  }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t requests_received() const { return requests_received_; }
  std::uint64_t steals() const { return steals_; }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t shed() const { return shed_; }

  /// Per-tenant rows for this core (counters + its gates' outcomes); empty
  /// when the tenant layer is off.
  std::vector<tenant::TenantStats> tenant_rows() const {
    auto rows = tenant_stats_;
    if (tenant_admission_ != nullptr) {
      const auto& gates = tenant_admission_->stats();
      for (std::size_t i = 0; i < rows.size() && i < gates.size(); ++i) {
        rows[i].overload.admitted += gates[i].admitted;
        rows[i].overload.rejected += gates[i].rejected;
      }
    }
    return rows;
  }

  net::RxRing& ring() { return server_.pf_->ring(id_); }

  /// Another worker went idle and may steal from us; called by the thief.
  std::optional<net::Packet> victimize() { return ring().pop(); }

  /// Kick an idle worker (used after a steal attempt becomes possible).
  void maybe_start() {
    if (idle_) start_next();
  }

 private:
  void start_next() {
    auto packet = ring().pop();
    sim::Duration prologue =
        server_.spec_.params.worker_pop_cost +
        server_.spec_.params.networker_parse_cost;
    bool stolen = false;
    if (!packet && server_.spec_.system == SystemKind::kWorkStealing) {
      packet = steal();
      if (packet) {
        prologue += server_.spec_.params.steal_cost;
        stolen = true;
      }
    }
    if (!packet) {
      idle_ = true;
      return;
    }
    idle_ = false;
    // A stolen payload sits in the victim's cache path; treat it as an LLC
    // touch at best. Otherwise residency depends on how deep this core's
    // backlog got after this payload arrived.
    const auto queued_behind = static_cast<std::uint32_t>(ring().depth());
    prologue += hw::payload_touch_cost(
        stolen ? hw::PlacementPolicy::kDdioLlc : server_.placement_,
        server_.spec_.params.cache_costs, queued_behind, ddio_);
    core_.run(prologue, [this, p = std::move(*packet)]() {
      // Ring sojourn: frame arrival at the NIC to the start of handling.
      // Run-to-completion serves one request at a time, so the sample is
      // still current when the response is built.
      current_sojourn_ = server_.sim_.now() - p.rx_at();
      const auto datagram = net::parse_udp_datagram(p);
      if (!datagram || !server_.accepts_port(datagram->udp.dst_port)) {
        ++server_.malformed_;
        start_next();
        return;
      }
      if (proto::peek_type(datagram->payload) ==
          proto::MessageType::kCancel) {
        // Run-to-completion has no central queue to unqueue from — by the
        // time a ToR cancel reaches the core the request is either already
        // running or already answered. Count it so hedged racks can see the
        // frames arrived, and move on.
        ++server_.cancels_ignored_;
        start_next();
        return;
      }
      const auto request = proto::RequestMessage::parse(datagram->payload);
      if (!request) {
        ++server_.malformed_;
        start_next();
        return;
      }
      ++requests_received_;
      if (!tenant_stats_.empty()) {
        ++tenant_stats_[server_.spec_.tenant.index_of(request->tenant)]
              .enqueued;
      }
      if (server_.spec_.overload.enabled &&
          overload_gate(p, *datagram, *request)) {
        start_next();
        return;
      }
      if (!tenant_stats_.empty()) {
        ++tenant_stats_[server_.spec_.tenant.index_of(request->tenant)]
              .dispatched;
      }
      current_ = make_descriptor(*request, *datagram);
      const proto::RequestDescriptor& descriptor = current_;
      sim::Simulator& sim = server_.sim_;
      if (sim.span_enabled()) {
        // Run-to-completion: no dispatcher, so the request goes straight
        // from NIC RX (ring residency counts as NIC time) into service.
        const auto lane = static_cast<std::uint32_t>(100 + id_);
        obs::record_nic_rx(sim, p.rx_at(), descriptor.request_id, lane);
        obs::begin_span(sim, descriptor.request_id, obs::SpanKind::kService,
                        lane);
      }
      core_.run_preemptible(
          sim::Duration::picos(
              static_cast<std::int64_t>(descriptor.remaining_ps)),
          [this]() { on_complete(); });
    });
  }

  /// Per-core overload control (DESIGN §11), applied at parse time — the
  /// earliest point a run-to-completion core can act. Returns true when the
  /// request was consumed (shed or rejected) and must not be served.
  bool overload_gate(const net::Packet& p,
                     const net::UdpDatagramView& datagram,
                     const proto::RequestMessage& request) {
    sim::Simulator& sim = server_.sim_;
    const overload::OverloadParams& params = server_.spec_.overload;
    // Ring residency is this core's queueing delay; feed the EWMA the same
    // signal the dispatcherful servers measure at their pop. With tenants on
    // (§13) the sample feeds the request's own tenant gate.
    const std::size_t slot =
        tenant_admission_ != nullptr
            ? server_.spec_.tenant.index_of(request.tenant)
            : 0;
    if (tenant_admission_ != nullptr) {
      tenant_admission_->observe(slot, sim.now() - p.rx_at());
    } else {
      admission_.observe_queue_delay(sim.now() - p.rx_at());
    }
    if (params.shedding_enabled && request.deadline_ps != 0 &&
        sim.now().to_picos() >=
            static_cast<std::int64_t>(request.deadline_ps)) {
      // Already expired: serving it would burn the core for a response
      // nobody counts. Drop silently; the client's own deadline timer
      // accounts it as expired.
      ++shed_;
      if (!tenant_stats_.empty()) {
        ++tenant_stats_[slot].overload.shed_expired;
      }
      if (sim.span_enabled()) {
        const auto lane = static_cast<std::uint32_t>(100 + id_);
        obs::record_nic_rx(sim, p.rx_at(), request.request_id, lane);
      }
      return true;
    }
    const bool admit_ok =
        tenant_admission_ != nullptr
            ? tenant_admission_->admit(slot, ring().depth())
            : admission_.admit(ring().depth());
    if (!admit_ok) {
      ++rejected_;
      if (sim.span_enabled()) {
        const auto lane = static_cast<std::uint32_t>(100 + id_);
        obs::record_nic_rx(sim, p.rx_at(), request.request_id, lane);
        obs::begin_span(sim, request.request_id, obs::SpanKind::kResponse,
                        lane);
      }
      server_.pf_->transmit(make_reject_frame(
          server_.pf_->mac(), server_.pf_->ip(), datagram.udp.dst_port,
          datagram, request, ring().depth()));
      return true;
    }
    ++admitted_;
    return false;
  }

  std::optional<net::Packet> steal() {
    // Steal from the deepest sibling ring, the ZygOS heuristic.
    Worker* victim = nullptr;
    std::size_t best_depth = 0;
    for (const auto& other : server_.workers_) {
      if (other.get() == this) continue;
      const std::size_t depth = other->ring().depth();
      if (depth > best_depth) {
        best_depth = depth;
        victim = other.get();
      }
    }
    if (victim == nullptr) return std::nullopt;
    auto packet = victim->victimize();
    if (packet) ++steals_;
    return packet;
  }

  void on_complete() {
    sim::Simulator& sim = server_.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(sim, current_.request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_.request_id, obs::SpanKind::kResponse,
                      lane);
    }
    core_.run(server_.spec_.params.response_build_cost, [this]() {
      const proto::RequestDescriptor& descriptor = current_;
      net::DatagramAddress address;
      address.src_mac = server_.pf_->mac();
      address.dst_mac = descriptor.client_mac;
      address.src_ip = server_.pf_->ip();
      address.dst_ip = descriptor.client_ip;
      address.src_port = kWorkerPort;
      address.dst_port = descriptor.client_port;
      auto& scratch = proto::serialization_scratch();
      auto response = make_response(descriptor);
      if (server_.spec_.load_feedback) {
        response.has_sojourn = true;
        response.sojourn_ps =
            static_cast<std::uint64_t>(current_sojourn_.to_picos());
      }
      response.serialize_into(scratch);
      server_.pf_->transmit(net::make_udp_datagram(address, scratch));
      ++responses_sent_;
      start_next();
    });
  }

  DistributedServer& server_;
  std::size_t id_;
  hw::CpuCore core_;
  /// Per-core admission state (each core only sees its own ring).
  overload::AdmissionController admission_;
  /// Tenant layer (DESIGN §13): per-tenant gates (overload on) and per-core
  /// per-tenant counters. Empty/null when the layer is off.
  std::unique_ptr<tenant::TenantAdmission> tenant_admission_;
  std::vector<tenant::TenantStats> tenant_stats_;
  bool idle_ = true;
  std::uint64_t requests_received_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  /// The request in service, from parse to response. Run-to-completion
  /// serves one at a time, so it parks here and each op captures only
  /// `this`: a captured descriptor would spill out of SmallFn.
  proto::RequestDescriptor current_;
  /// Ring wait of the request currently in service (load-feedback echo).
  sim::Duration current_sojourn_;
  hw::DdioStats ddio_;
};

// ------------------------------------------------------------- the server

DistributedServer::DistributedServer(sim::Simulator& sim,
                                     net::EthernetSwitch& network,
                                     const HostSpec& spec)
    : FaultableServer(network, spec.worker_count),
      sim_(sim),
      spec_(spec),
      placement_(spec.placement.value_or(hw::PlacementPolicy::kDdioLlc)),
      nic_(sim, nic_config(spec.params)) {
  if (spec_.worker_count == 0) {
    throw std::invalid_argument("DistributedServer: need >= 1 worker");
  }

  pf_ = &nic_.add_interface("pf", net::MacAddress::from_index(kPfIndex),
                            net::Ipv4Address::from_index(kPfIndex),
                            spec_.worker_count);
  switch (spec_.system) {
    case SystemKind::kRss:
    case SystemKind::kWorkStealing:
      pf_->use_rss();
      break;
    case SystemKind::kElasticRss:
      pf_->use_rss();
      sim_.after(kRebalancePeriod, [this]() { rebalance_tick(); });
      break;
    case SystemKind::kFlowDirector:
      pf_->use_flow_director();
      for (std::size_t i = 0; i < spec_.worker_count; ++i) {
        pf_->flow_director().add_dst_port_rule(
            static_cast<std::uint16_t>(kRequestPort + i),
            static_cast<std::uint32_t>(i));
      }
      break;
    default:
      throw std::invalid_argument(
          "DistributedServer: not a run-to-completion system kind");
  }
  nic_.attach_to_switch(network, spec_.params.stingray_port_latency,
                        spec_.params.line_rate_gbps);

  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

DistributedServer::~DistributedServer() = default;

// The eRSS control loop: every period, compare per-ring backlogs and move
// one indirection entry from the deepest ring to the shallowest. This runs
// "in NIC firmware" — it costs no worker cycles, exactly the asymmetry the
// paper exploits when arguing for NIC-side control-plane work.
void DistributedServer::rebalance_tick() {
  std::size_t hottest = 0, coldest = 0;
  for (std::size_t i = 1; i < spec_.worker_count; ++i) {
    if (pf_->ring(i).depth() > pf_->ring(hottest).depth()) hottest = i;
    if (pf_->ring(i).depth() < pf_->ring(coldest).depth()) coldest = i;
  }
  if (pf_->ring(hottest).depth() >=
      pf_->ring(coldest).depth() + kRebalanceThreshold) {
    if (pf_->rss_table()->remap_one(static_cast<std::uint32_t>(hottest),
                                    static_cast<std::uint32_t>(coldest))) {
      ++rebalances_;
    }
  }
  sim_.after(kRebalancePeriod, [this]() { rebalance_tick(); });
}

net::MacAddress DistributedServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address DistributedServer::ingress_ip() const { return pf_->ip(); }

hw::CpuCore& DistributedServer::worker_core(std::uint32_t worker) {
  return workers_[worker]->core();
}

std::uint64_t DistributedServer::drops() const {
  std::uint64_t drops = nic_.rx_unknown_mac_drops() + malformed_;
  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    drops += pf_->ring(i).stats().dropped;
  }
  return drops;
}

ServerStats DistributedServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  for (const auto& worker : workers_) {
    stats.requests_received += worker->requests_received();
    stats.steals += worker->steals();
    worker->counters().add_to(stats, elapsed);
  }
  stats.drops = drops();
  for (const auto& worker : workers_) {
    stats.overload.admitted += worker->admitted();
    stats.overload.rejected += worker->rejected();
    stats.overload.shed_expired += worker->shed();
    tenant::accumulate(stats.tenants, worker->tenant_rows());
  }
  return stats;
}

ServerTelemetry DistributedServer::telemetry() const {
  ServerTelemetry t;
  t.drops = drops();
  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    t.queue_depth += pf_->ring(i).depth();
  }
  for (const auto& worker : workers_) {
    t.outstanding += worker->requests_received() - worker->responses_sent() -
                     worker->rejected() - worker->shed();
    t.rejected += worker->rejected();
    t.shed += worker->shed();
    worker->counters().add_to(t);
  }
  return t;
}

}  // namespace nicsched::core
