#include "core/ideal_nic_server.h"

#include <deque>
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
class IdealNicServer::Worker {
 public:
  Worker(IdealNicServer& server, std::size_t id)
      : server_(server),
        id_(id),
        core_(server.sim_, [&] {
          hw::CpuCore::Config config;
          config.name = "ideal-worker" + std::to_string(id);
          config.frequency = server.params_.host_frequency;
          return config;
        }()),
        interrupt_line_(server.sim_, core_,
                        hw::InterruptLine::Config{
                            server.params_.cxl_one_way_latency,
                            server.params_.timer_receive_cycles}),
        assign_channel_(server.sim_, server.params_.cxl_one_way_latency) {
    assign_channel_.set_on_message([this]() {
      if (idle_) start_next();
    });
  }

  hw::MessageChannel<proto::RequestDescriptor>& assign_channel() {
    return assign_channel_;
  }
  hw::InterruptLine& interrupt_line() { return interrupt_line_; }

  /// Load feedback: one queued sample per assignment sent, in channel
  /// order; the worker pops the matching sample at pop time.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

  const hw::CpuCore& core() const { return core_; }
  hw::CpuCore& mutable_core() { return core_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t spurious() const { return interrupt_line_.spurious_count(); }
  const hw::DdioStats& ddio() const { return ddio_; }

  void on_preempted(sim::Duration remaining) {
    ++preemptions_;
    sim::Simulator& sim = server_.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(sim, current_->request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_->request_id, obs::SpanKind::kRequeue,
                      lane);
    }
    proto::RequestDescriptor descriptor = *current_;
    current_.reset();
    descriptor.remaining_ps =
        static_cast<std::uint64_t>(remaining.to_picos());
    descriptor.preempt_count =
        static_cast<std::uint16_t>(descriptor.preempt_count + 1);

    const sim::Duration cost =
        server_.params_.context_save_cost + server_.params_.cxl_write_cost;
    core_.run(cost, [this, descriptor]() {
      server_.status_channel_.send(StatusNote{
          id_, NoteKind::kPreempted, descriptor.request_id, descriptor});
      start_next();
    });
  }

 private:
  void start_next() {
    auto descriptor = assign_channel_.pop();
    if (!descriptor) {
      idle_ = true;
      return;
    }
    idle_ = false;
    if (!pending_sojourns_.empty()) {
      current_sojourn_ = pending_sojourns_.front();
      pending_sojourns_.pop_front();
    } else {
      current_sojourn_ = sim::Duration::zero();
    }
    auto shared =
        std::make_shared<proto::RequestDescriptor>(std::move(*descriptor));
    // Descriptor pop + the payload's first touch (DDIO targeted L1, §5.2,
    // which holds as long as K kept the backlog under the L1 budget) +
    // announcing "started" with one coherent write the NIC snoops.
    const auto queued_behind =
        static_cast<std::uint32_t>(assign_channel_.depth());
    sim::Duration prologue =
        server_.params_.ddio_pop_cost + server_.params_.cxl_write_cost +
        hw::payload_touch_cost(server_.config_.placement,
                               server_.params_.cache_costs, queued_behind,
                               ddio_);
    if (shared->preempt_count > 0) {
      prologue += server_.params_.context_restore_cost;
    }
    core_.run(prologue, [this, shared]() {
      current_ = *shared;
      sim::Simulator& sim = server_.sim_;
      if (sim.span_enabled()) {
        const auto lane = static_cast<std::uint32_t>(100 + id_);
        obs::end_span(sim, shared->request_id, obs::SpanKind::kDispatch, lane);
        obs::begin_span(sim, shared->request_id, obs::SpanKind::kService,
                        lane);
      }
      server_.status_channel_.send(
          StatusNote{id_, NoteKind::kStarted, shared->request_id, {}});
      core_.run_preemptible(
          sim::Duration::picos(static_cast<std::int64_t>(shared->remaining_ps)),
          [this]() { on_complete(); });
    });
  }

  void on_complete() {
    sim::Simulator& sim = server_.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(sim, current_->request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_->request_id, obs::SpanKind::kResponse,
                      lane);
    }
    proto::RequestDescriptor descriptor = *current_;
    current_.reset();
    const sim::Duration cost =
        server_.params_.response_build_cost + server_.params_.cxl_write_cost;
    core_.run(cost, [this, descriptor]() {
      net::DatagramAddress address;
      address.src_mac = server_.pf_->mac();
      address.dst_mac = descriptor.client_mac;
      address.src_ip = server_.pf_->ip();
      address.dst_ip = descriptor.client_ip;
      address.src_port = kWorkerPort;
      address.dst_port = descriptor.client_port;
      auto& scratch = proto::serialization_scratch();
      auto response = make_response(descriptor);
      if (server_.config_.load_feedback) {
        response.has_sojourn = true;
        response.sojourn_ps =
            static_cast<std::uint64_t>(current_sojourn_.to_picos());
      }
      response.serialize_into(scratch);
      server_.pf_->transmit(net::make_udp_datagram(address, scratch));
      ++responses_sent_;
      server_.status_channel_.send(
          StatusNote{id_, NoteKind::kCompleted, descriptor.request_id, {}});
      start_next();
    });
  }

  IdealNicServer& server_;
  std::size_t id_;
  hw::CpuCore core_;
  hw::InterruptLine interrupt_line_;
  hw::MessageChannel<proto::RequestDescriptor> assign_channel_;
  bool idle_ = true;
  std::optional<proto::RequestDescriptor> current_;
  std::deque<sim::Duration> pending_sojourns_;
  sim::Duration current_sojourn_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t responses_sent_ = 0;
  hw::DdioStats ddio_;
};

// ------------------------------------------------------------- the server

IdealNicServer::IdealNicServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const ModelParams& params, Config config)
    : sim_(sim),
      network_(network),
      params_(params),
      config_(config),
      nic_(sim, nic_config(params)),
      asic_(sim, asic_config(params)),
      status_channel_(sim, params.cxl_one_way_latency),
      central_(config.queue_policy, config.overload, config.tenant),
      status_(config.worker_count, config.outstanding_per_worker),
      running_(config.worker_count) {
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
      const sim::TimePoint rx = packet.rx_at();
      obs::end_span_at(sim_, rx, request->request_id,
                       obs::SpanKind::kClientWire, 0);
      obs::begin_span_at(sim_, rx, request->request_id,
                         obs::SpanKind::kNicRx, 0);
      obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, 0);
      obs::begin_span(sim_, request->request_id, obs::SpanKind::kResponse,
                      0);
    }
    pf_->transmit(make_reject_frame(pf_->mac(), pf_->ip(), config_.udp_port,
                                    *datagram, *request, verdict.depth));
    return;
  }
  if (sim_.span_enabled()) {
    const sim::TimePoint rx = packet.rx_at();
    obs::end_span_at(sim_, rx, request->request_id,
                     obs::SpanKind::kClientWire, 0);
    obs::begin_span_at(sim_, rx, request->request_id, obs::SpanKind::kNicRx,
                       0);
    obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, 0);
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
        RunningInfo& info = running_[note->worker];
        switch (note->kind) {
          case NoteKind::kStarted:
            info.request_id = note->request_id;
            info.started_at = sim_.now();
            info.running = true;
            info.preempt_in_flight = false;
            if (config_.preemption_enabled) {
              schedule_slice_check(note->worker, note->request_id);
            }
            break;
          case NoteKind::kCompleted:
            status_.note_retired(note->worker, sim_.now());
            if (info.request_id == note->request_id) info.running = false;
            break;
          case NoteKind::kPreempted:
            status_.note_retired(note->worker, sim_.now());
            if (info.request_id == note->request_id) info.running = false;
            central_.push_preempted(std::move(note->descriptor), sim_.now());
            break;
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

void IdealNicServer::schedule_slice_check(std::size_t worker,
                                          std::uint64_t request_id) {
  sim_.after(config_.time_slice, [this, worker, request_id]() {
    RunningInfo& info = running_[worker];
    if (!info.running || info.request_id != request_id ||
        info.preempt_in_flight) {
      return;
    }
    if (central_.empty()) {
      // Informed: nothing waiting, keep running and re-check later.
      schedule_slice_check(worker, request_id);
      return;
    }
    issue_preempt(worker);
  });
}

void IdealNicServer::issue_preempt(std::size_t worker) {
  running_[worker].preempt_in_flight = true;
  asic_.run(params_.asic_dispatch_cost, [this, worker]() {
    workers_[worker]->interrupt_line().send(
        [this, worker](sim::Duration remaining) {
          workers_[worker]->on_preempted(remaining);
        });
  });
}

void IdealNicServer::inject_ingress_loss(double probability,
                                         std::uint64_t seed) {
  network_.set_port_loss(pf_->mac(), probability, seed);
}

void IdealNicServer::inject_dispatch_loss(double /*probability*/,
                                          std::uint64_t /*seed*/) {}

void IdealNicServer::inject_ingress_degrade(double factor) {
  network_.set_port_degrade(pf_->mac(), factor);
}

void IdealNicServer::inject_worker_stall(std::uint32_t worker,
                                         sim::Duration duration) {
  workers_[worker]->mutable_core().stall_for(duration);
}

void IdealNicServer::inject_worker_crash(std::uint32_t worker) {
  workers_[worker]->mutable_core().stall();
}

void IdealNicServer::inject_worker_resume(std::uint32_t worker) {
  workers_[worker]->mutable_core().resume();
}

ServerStats IdealNicServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = requests_received_;
  for (const auto& worker : workers_) {
    stats.responses_sent += worker->responses_sent();
    stats.preemptions += worker->preemptions();
    stats.spurious_interrupts += worker->spurious();
    stats.ddio.l1_touches += worker->ddio().l1_touches;
    stats.ddio.llc_touches += worker->ddio().llc_touches;
    stats.ddio.dram_touches += worker->ddio().dram_touches;
    if (elapsed > sim::Duration::zero()) {
      stats.worker_utilization.push_back(worker->core().stats().busy /
                                         elapsed);
    }
  }
  stats.drops =
      nic_.rx_unknown_mac_drops() + malformed_ + pf_->ring(0).stats().dropped;
  central_.add_to(stats);
  return stats;
}

ServerTelemetry IdealNicServer::telemetry() const {
  ServerTelemetry t;
  central_.add_to(t);
  t.outstanding = status_.total_outstanding();
  t.drops = malformed_ + pf_->ring(0).stats().dropped;
  for (const auto& worker : workers_) {
    t.preemptions += worker->preemptions();
    t.worker_busy.push_back(worker->core().stats().busy);
  }
  return t;
}

}  // namespace nicsched::core
