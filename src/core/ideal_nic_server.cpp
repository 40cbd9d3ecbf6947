#include "core/ideal_nic_server.h"

#include <stdexcept>
#include <utility>

#include "obs/span.h"

namespace nicsched::core {

namespace {

constexpr std::uint32_t kPfIndex = 4000;
constexpr std::uint16_t kWorkerPort = 8082;

net::Nic::Config nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "ideal-nic";
  config.rx_latency = sim::Duration::zero();  // scheduler sees frames on-NIC
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config asic_config(const ModelParams& params) {
  hw::CpuCore::Config config;
  config.name = "nic-asic";
  config.frequency = params.host_frequency;
  return config;
}

}  // namespace

// ----------------------------------------------------------------- Worker

/// A host worker polling its CXL assignment queue. Requests are preempted by
/// direct NIC interrupts; all status flows back as coherent writes.
class IdealNicServer::Worker final : public HostWorker {
 public:
  Worker(IdealNicServer& server, std::size_t id)
      : HostWorker(server.sim_, server.params_,
                   {"ideal-worker" + std::to_string(id), id,
                    static_cast<std::uint32_t>(100 + id),
                    server.params_.cxl_one_way_latency,
                    // Descriptor pop + announcing "started" with one
                    // coherent write the NIC snoops; the payload's first
                    // touch hits L1 while K keeps the backlog in budget.
                    server.params_.ddio_pop_cost +
                        server.params_.cxl_write_cost,
                    server.params_.cxl_write_cost, server.config_.placement,
                    server.pf_, kWorkerPort, server.config_.load_feedback}),
        server_(server),
        id_(id),
        assign_channel_(server.sim_, server.params_.cxl_one_way_latency) {
    assign_channel_.set_on_message([this]() { wake(); });
  }

  hw::MessageChannel<proto::RequestDescriptor>& assign_channel() {
    return assign_channel_;
  }

 private:
  bool fetch(proto::RequestDescriptor& out) override {
    auto descriptor = assign_channel_.pop();
    if (!descriptor) return false;
    out = std::move(*descriptor);
    return true;
  }
  std::uint32_t queued_behind() const override {
    return static_cast<std::uint32_t>(assign_channel_.depth());
  }
  void notify(Note note, const proto::RequestDescriptor& descriptor) override {
    server_.status_channel_.send(StatusNote{id_, note, descriptor});
  }

  IdealNicServer& server_;
  std::size_t id_;
  hw::MessageChannel<proto::RequestDescriptor> assign_channel_;
};

// ------------------------------------------------------------- the server

IdealNicServer::IdealNicServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const ModelParams& params, Config config)
    : FaultableServer(network, config.worker_count),
      sim_(sim),
      params_(params),
      config_(config),
      nic_(sim, nic_config(params)),
      asic_(sim, asic_config(params)),
      status_channel_(sim, params.cxl_one_way_latency),
      central_(config.queue_policy, config.overload, config.tenant),
      status_(config.worker_count, config.outstanding_per_worker),
      slice_(sim, config.time_slice, config.preemption_enabled,
             config.worker_count, *this) {
  if (config_.worker_count == 0) {
    throw std::invalid_argument("IdealNicServer: need >= 1 worker");
  }
  if (config_.outstanding_per_worker == 0) {
    throw std::invalid_argument("IdealNicServer: K must be >= 1");
  }

  pf_ = &nic_.add_interface("pf", net::MacAddress::from_index(kPfIndex),
                            net::Ipv4Address::from_index(kPfIndex));
  nic_.attach_to_switch(network, params_.stingray_port_latency,
                        params_.line_rate_gbps);

  ingress_pump_ = std::make_unique<PacketPump>(
      asic_, pf_->ring(0), params_.asic_dispatch_cost,
      [this](net::Packet packet) { scheduler_handle(std::move(packet)); });
  status_channel_.set_on_message([this]() { scheduler_kick(); });

  for (std::size_t i = 0; i < config_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
}

IdealNicServer::~IdealNicServer() = default;

net::MacAddress IdealNicServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address IdealNicServer::ingress_ip() const { return pf_->ip(); }

void IdealNicServer::scheduler_handle(net::Packet packet) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram || datagram->udp.dst_port != config_.udp_port) {
    ++malformed_;
    return;
  }
  if (proto::peek_type(datagram->payload) == proto::MessageType::kCancel) {
    if (const auto cancel = proto::CancelMessage::parse(datagram->payload)) {
      // The losing leg of a ToR-hedged pair (DESIGN §16): mark the id for a
      // lazy drop at dispatch. A mark whose request was already dispatched
      // (or never arrived here) is consumed-or-harmless — ids are unique
      // per run.
      central_.cancel(cancel->request_id);
    } else {
      ++malformed_;
    }
    return;
  }
  const auto request = proto::RequestMessage::parse(datagram->payload);
  if (!request) {
    ++malformed_;
    return;
  }
  ++requests_received_;
  // Informed admission (DESIGN §11) straight in the ASIC pipeline; the
  // reject frame leaves without involving any host core. With tenants on
  // (§13) the request is judged by its own tenant's gate and backlog.
  const auto verdict = central_.admit(request->tenant, 0);
  if (!verdict.admitted) {
    if (sim_.span_enabled()) {
      obs::record_nic_rx(sim_, packet.rx_at(), request->request_id, 0);
      obs::begin_span(sim_, request->request_id, obs::SpanKind::kResponse,
                      0);
    }
    pf_->transmit(make_reject_frame(pf_->mac(), pf_->ip(), config_.udp_port,
                                    *datagram, *request, verdict.depth));
    return;
  }
  if (sim_.span_enabled()) {
    obs::record_nic_rx(sim_, packet.rx_at(), request->request_id, 0);
    obs::begin_span(sim_, request->request_id, obs::SpanKind::kDispatchQueue,
                    0);
  }
  central_.push_new(make_descriptor(*request, *datagram), sim_.now());
  scheduler_kick();
}

void IdealNicServer::scheduler_kick() {
  if (pumping_) return;
  pumping_ = true;
  scheduler_step();
}

void IdealNicServer::scheduler_step() {
  if (!status_channel_.empty()) {
    asic_.run(params_.asic_dispatch_cost, [this]() {
      auto note = status_channel_.pop();
      if (note) {
        const std::uint64_t id = note->descriptor.request_id;
        if (note->kind == HostWorker::Note::kStarted) {
          slice_.start(note->worker, id);
        } else {
          status_.note_retired(note->worker, sim_.now());
          if (slice_.token(note->worker) == id) slice_.stop(note->worker);
          if (note->kind == HostWorker::Note::kPreempted) {
            central_.push_preempted(std::move(note->descriptor), sim_.now());
          }
        }
      }
      scheduler_step();
    });
    return;
  }
  if (!central_.empty() && status_.pick_least_loaded().has_value()) {
    asic_.run(params_.asic_dispatch_cost, [this]() {
      const auto worker = status_.pick_least_loaded();
      if (worker) {
        sim::Duration queue_delay = sim::Duration::zero();
        auto descriptor = central_.pop(sim_.now(), queue_delay);
        if (descriptor) {
          descriptor->queue_depth =
              static_cast<std::uint32_t>(central_.depth());
          status_.note_sent(*worker, sim_.now());
          if (sim_.span_enabled()) {
            obs::end_span(sim_, descriptor->request_id,
                          descriptor->preempt_count > 0
                              ? obs::SpanKind::kRequeue
                              : obs::SpanKind::kDispatchQueue,
                          1);
            obs::begin_span(sim_, descriptor->request_id,
                            obs::SpanKind::kDispatch, 1);
          }
          if (config_.load_feedback) {
            workers_[*worker]->push_pending_sojourn(queue_delay);
          }
          workers_[*worker]->assign_channel().send(std::move(*descriptor));
        }
      }
      scheduler_step();
    });
    return;
  }
  pumping_ = false;
}

void IdealNicServer::send_preempt(std::size_t worker) {
  asic_.run(params_.asic_dispatch_cost,
            [this, worker]() { workers_[worker]->interrupt(); });
}

hw::CpuCore& IdealNicServer::worker_core(std::uint32_t worker) {
  return workers_[worker]->core();
}

std::uint64_t IdealNicServer::drops() const {
  return nic_.rx_unknown_mac_drops() + malformed_ +
         pf_->ring(0).stats().dropped;
}

ServerStats IdealNicServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = requests_received_;
  for (const auto& worker : workers_) worker->counters().add_to(stats, elapsed);
  stats.drops = drops();
  central_.add_to(stats);
  return stats;
}

ServerTelemetry IdealNicServer::telemetry() const {
  ServerTelemetry t;
  central_.add_to(t);
  t.outstanding = status_.total_outstanding();
  t.drops = drops();
  for (const auto& worker : workers_) worker->counters().add_to(t);
  return t;
}

}  // namespace nicsched::core
