#include "core/shinjuku_server.h"

#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/span.h"

namespace nicsched::core {

namespace {

constexpr std::uint32_t kPfIndex = 2000;
constexpr std::uint16_t kWorkerPort = 8082;

net::Nic::Config nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "82599es";
  config.rx_latency = params.host_nic_rx;
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config smt_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  // Networker and dispatcher share a physical core via hyperthreading
  // (§4.1), inflating both threads' per-op costs.
  config.time_scale = params.smt_penalty;
  return config;
}

hw::CpuCore::Config worker_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  return config;
}

}  // namespace

// ----------------------------------------------------------------- Worker

/// A Shinjuku worker: receives assignments over a cache-line channel,
/// executes them, responds to the client through the shared NIC, and is
/// preempted by dispatcher-sent posted interrupts.
class ShinjukuServer::Worker {
 public:
  Worker(Group& group, std::size_t id)
      : group_(group),
        id_(id),
        core_(group.server.sim_,
              worker_core(group.server.params_,
                          "worker" + std::to_string(group.index) + "." +
                              std::to_string(id))),
        interrupt_line_(group.server.sim_, core_,
                        hw::InterruptLine::Config{
                            group.server.params_.interrupt_delivery_latency,
                            group.server.params_.timer_receive_cycles}),
        assign_channel_(group.server.sim_,
                        group.server.params_.dedicated_poll_latency) {
    assign_channel_.set_on_message([this]() {
      if (idle_) start_next();
    });
  }

  hw::MessageChannel<proto::RequestDescriptor>& assign_channel() {
    return assign_channel_;
  }
  hw::InterruptLine& interrupt_line() { return interrupt_line_; }

  /// Load feedback: the dispatcher pairs each assignment it sends with the
  /// request's measured dispatch-queue sojourn. The FIFO mirrors the assign
  /// channel's order, so the worker pops the matching sample at pop time.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

  const hw::CpuCore& core() const { return core_; }
  hw::CpuCore& mutable_core() { return core_; }
  std::uint64_t preemptions() const { return preemptions_; }
  std::uint64_t responses_sent() const { return responses_sent_; }
  std::uint64_t spurious() const { return interrupt_line_.spurious_count(); }
  const hw::DdioStats& ddio() const { return ddio_; }

  /// Called (via the interrupt line) when the dispatcher preempts us.
  void on_preempted(sim::Duration remaining) {
    ++preemptions_;
    sim::Simulator& sim = group_.server.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + group_.index * 100 + id_);
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

    const ModelParams& params = group_.server.params_;
    const sim::Duration cost =
        params.context_save_cost + params.cacheline_ipc_cost;
    core_.run(cost, [this, descriptor]() {
      group_.note_channel.send(
          Note{id_, true, descriptor, descriptor.request_id});
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
    const ModelParams& params = group_.server.params_;
    // The payload was DMA'd by DDIO into the LLC and the dispatcher hands
    // out one request at a time, so the worker's first touch is an LLC hit
    // (never L1 — another core parsed the packet; never evicted — the
    // centralized queue holds payloads in the LLC, not on this core).
    sim::Duration prologue =
        params.worker_pop_cost +
        hw::payload_touch_cost(hw::PlacementPolicy::kDdioLlc,
                               params.cache_costs, 0, ddio_);
    if (shared->preempt_count > 0) {
      prologue += params.context_restore_cost;
    }
    core_.run(prologue, [this, shared]() {
      current_ = *shared;
      sim::Simulator& sim = group_.server.sim_;
      if (sim.span_enabled()) {
        const auto lane = static_cast<std::uint32_t>(100 + group_.index * 100 + id_);
        obs::end_span(sim, shared->request_id, obs::SpanKind::kDispatch, lane);
        obs::begin_span(sim, shared->request_id, obs::SpanKind::kService,
                        lane);
      }
      core_.run_preemptible(
          sim::Duration::picos(static_cast<std::int64_t>(shared->remaining_ps)),
          [this]() { on_complete(); });
    });
  }

  void on_complete() {
    sim::Simulator& sim = group_.server.sim_;
    if (sim.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + group_.index * 100 + id_);
      obs::end_span(sim, current_->request_id, obs::SpanKind::kService, lane);
      obs::begin_span(sim, current_->request_id, obs::SpanKind::kResponse,
                      lane);
    }
    proto::RequestDescriptor descriptor = *current_;
    current_.reset();
    const ModelParams& params = group_.server.params_;
    const sim::Duration cost =
        params.response_build_cost + params.cacheline_ipc_cost;
    core_.run(cost, [this, descriptor]() {
      net::NicInterface* pf = group_.server.pf_;
      net::DatagramAddress address;
      address.src_mac = pf->mac();
      address.dst_mac = descriptor.client_mac;
      address.src_ip = pf->ip();
      address.dst_ip = descriptor.client_ip;
      address.src_port = kWorkerPort;
      address.dst_port = descriptor.client_port;
      auto& scratch = proto::serialization_scratch();
      auto response = make_response(descriptor);
      if (group_.server.config_.load_feedback) {
        response.has_sojourn = true;
        response.sojourn_ps =
            static_cast<std::uint64_t>(current_sojourn_.to_picos());
      }
      response.serialize_into(scratch);
      pf->transmit(net::make_udp_datagram(address, scratch));
      ++responses_sent_;
      group_.note_channel.send(Note{id_, false, {}, descriptor.request_id});
      start_next();
    });
  }

  Group& group_;
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

// -------------------------------------------------------------------- Group

ShinjukuServer::Group::Group(ShinjukuServer& server_ref, std::size_t index_arg)
    : server(server_ref),
      index(index_arg),
      networker_core(server_ref.sim_,
                     smt_core(server_ref.params_,
                              "networker" + std::to_string(index_arg))),
      dispatcher_core(server_ref.sim_,
                      smt_core(server_ref.params_,
                               "dispatcher" + std::to_string(index_arg))),
      intake_channel(server_ref.sim_, server_ref.params_.cacheline_ipc_latency),
      // Worker completion flags are the dispatcher loop's primary input; it
      // scans the few worker context lines tightly.
      note_channel(server_ref.sim_, server_ref.params_.dedicated_poll_latency),
      central(server_ref.config_.queue_policy, server_ref.config_.overload,
              server_ref.config_.tenant),
      status(0, 1) {}

// ------------------------------------------------------------- the server

ShinjukuServer::ShinjukuServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const ModelParams& params, Config config)
    : sim_(sim),
      network_(network),
      params_(params),
      config_(config),
      nic_(sim, nic_config(params)) {
  if (config_.worker_count == 0) {
    throw std::invalid_argument("ShinjukuServer: need >= 1 worker");
  }
  if (config_.dispatcher_count == 0 ||
      config_.dispatcher_count > config_.worker_count) {
    throw std::invalid_argument(
        "ShinjukuServer: dispatcher_count must be in [1, worker_count]");
  }

  pf_ = &nic_.add_interface("shinjuku-pf", net::MacAddress::from_index(kPfIndex),
                            net::Ipv4Address::from_index(kPfIndex),
                            config_.dispatcher_count);
  if (config_.dispatcher_count > 1) {
    // §2.2: "RSS can be used to route packets from the NIC to different
    // dispatchers, but this can again result in load imbalance."
    pf_->use_rss();
  }
  nic_.attach_to_switch(network, params_.stingray_port_latency,
                        params_.line_rate_gbps);

  for (std::size_t g = 0; g < config_.dispatcher_count; ++g) {
    groups_.push_back(std::make_unique<Group>(*this, g));
  }

  // Partition workers round-robin so uneven counts stay near-balanced.
  for (std::size_t w = 0; w < config_.worker_count; ++w) {
    Group& group = *groups_[w % groups_.size()];
    group.workers.push_back(
        std::make_unique<Worker>(group, group.workers.size()));
  }
  for (auto& group_ptr : groups_) {
    Group& group = *group_ptr;
    group.status = CoreStatusTable(group.workers.size(), /*capacity=*/1);
    group.running.resize(group.workers.size());
    group.networker_pump = std::make_unique<PacketPump>(
        group.networker_core, pf_->ring(group.index),
        params_.networker_parse_cost, [this, &group](net::Packet packet) {
          networker_handle(group, std::move(packet));
        });
    group.intake_channel.set_on_message(
        [this, &group]() { dispatcher_kick(group); });
    group.note_channel.set_on_message(
        [this, &group]() { dispatcher_kick(group); });
  }
}

ShinjukuServer::~ShinjukuServer() = default;

net::MacAddress ShinjukuServer::ingress_mac() const { return pf_->mac(); }

net::Ipv4Address ShinjukuServer::ingress_ip() const { return pf_->ip(); }

std::uint64_t ShinjukuServer::group_requests(std::size_t group) const {
  return groups_[group]->requests_received;
}

const CoreStatusTable& ShinjukuServer::core_status(std::size_t group) const {
  return groups_[group]->status;
}

void ShinjukuServer::networker_handle(Group& group, net::Packet packet) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram || datagram->udp.dst_port != config_.udp_port) {
    ++group.malformed;
    return;
  }
  if (proto::peek_type(datagram->payload) == proto::MessageType::kCancel) {
    if (const auto cancel = proto::CancelMessage::parse(datagram->payload)) {
      // The losing leg of a ToR-hedged pair (DESIGN §16). The cancel's
      // control 5-tuple need not hash to the group that queued the request,
      // so mark every group's queue; a mark that never matches is harmless
      // (ids are unique per run).
      for (auto& other : groups_) other->central.cancel(cancel->request_id);
    } else {
      ++group.malformed;
    }
    return;
  }
  const auto request = proto::RequestMessage::parse(datagram->payload);
  if (!request) {
    ++group.malformed;
    return;
  }
  ++group.requests_received;
  // Informed admission (DESIGN §11), scoped to this group's queue; with
  // tenants on (§13) the request is judged by its own tenant's gate.
  const auto verdict =
      group.central.admit(request->tenant, group.intake_channel.depth());
  if (!verdict.admitted) {
    if (sim_.span_enabled()) {
      const sim::TimePoint rx = packet.rx_at();
      const auto lane = static_cast<std::uint32_t>(group.index);
      obs::end_span_at(sim_, rx, request->request_id,
                       obs::SpanKind::kClientWire, lane);
      obs::begin_span_at(sim_, rx, request->request_id,
                         obs::SpanKind::kNicRx, lane);
      obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, lane);
      obs::begin_span(sim_, request->request_id, obs::SpanKind::kResponse,
                      lane);
    }
    pf_->transmit(make_reject_frame(pf_->mac(), pf_->ip(), config_.udp_port,
                                    *datagram, *request, verdict.depth));
    return;
  }
  if (sim_.span_enabled()) {
    const sim::TimePoint rx = packet.rx_at();
    const auto lane = static_cast<std::uint32_t>(group.index);
    obs::end_span_at(sim_, rx, request->request_id,
                     obs::SpanKind::kClientWire, lane);
    obs::begin_span_at(sim_, rx, request->request_id, obs::SpanKind::kNicRx,
                       lane);
    obs::end_span(sim_, request->request_id, obs::SpanKind::kNicRx, lane);
    obs::begin_span(sim_, request->request_id, obs::SpanKind::kDispatchQueue,
                    lane);
  }
  group.intake_channel.send(make_descriptor(*request, *datagram));
}

void ShinjukuServer::dispatcher_kick(Group& group) {
  if (group.pumping) return;
  group.pumping = true;
  dispatcher_step(group);
}

void ShinjukuServer::dispatcher_step(Group& group) {
  if (!group.note_channel.empty()) {
    group.dispatcher_core.run(params_.dispatch_note_cost, [this, &group]() {
      auto note = group.note_channel.pop();
      if (note && reliable()) {
        if (!group.status.entry(note->worker).healthy) {
          // Any note proves the worker is alive again.
          group.status.set_healthy(note->worker, true);
          ++rel_.revivals;
        }
        RunningInfo& info = group.running[note->worker];
        if (info.active && info.request_id == note->request_id) {
          group.status.note_retired(note->worker, sim_.now());
          info.active = false;
          info.preempt_in_flight = false;
          if (note->preempted) {
            group.central.push_preempted(std::move(note->descriptor),
                                         sim_.now());
          }
        } else {
          // Stale note for a request the liveness watchdog already
          // re-steered; retiring it would corrupt the bookkeeping of
          // whatever the worker was assigned next.
          ++rel_.duplicates;
        }
      } else if (note) {
        group.status.note_retired(note->worker, sim_.now());
        group.running[note->worker].active = false;
        group.running[note->worker].preempt_in_flight = false;
        if (note->preempted) {
          group.central.push_preempted(std::move(note->descriptor),
                                         sim_.now());
        }
      }
      dispatcher_step(group);
    });
    return;
  }
  if (!group.central.empty() && group.status.pick_least_loaded().has_value()) {
    group.dispatcher_core.run(
        params_.dispatch_assign_cost + params_.cacheline_ipc_cost,
        [this, &group]() {
          const auto worker = group.status.pick_least_loaded();
          if (worker) {
            sim::Duration queue_delay = sim::Duration::zero();
            auto descriptor = group.central.pop(sim_.now(), queue_delay);
            if (descriptor) {
              descriptor->queue_depth =
                  static_cast<std::uint32_t>(group.central.depth());
              group.status.note_sent(*worker, sim_.now());
              if (sim_.span_enabled()) {
                const auto lane = static_cast<std::uint32_t>(group.index);
                obs::end_span(sim_, descriptor->request_id,
                              descriptor->preempt_count > 0
                                  ? obs::SpanKind::kRequeue
                                  : obs::SpanKind::kDispatchQueue,
                              lane);
                obs::begin_span(sim_, descriptor->request_id,
                                obs::SpanKind::kDispatch, lane);
              }
              RunningInfo& info = group.running[*worker];
              ++info.epoch;
              info.assigned_at = sim_.now();
              info.active = true;
              info.preempt_in_flight = false;
              if (config_.preemption_enabled) {
                schedule_slice_check(group, *worker, info.epoch);
              }
              if (reliable()) {
                info.request_id = descriptor->request_id;
                info.descriptor = *descriptor;
                arm_liveness(group, *worker, info.epoch);
              }
              if (config_.load_feedback) {
                group.workers[*worker]->push_pending_sojourn(queue_delay);
              }
              group.workers[*worker]->assign_channel().send(
                  std::move(*descriptor));
            }
          }
          dispatcher_step(group);
        });
    return;
  }
  if (!group.intake_channel.empty()) {
    group.dispatcher_core.run(params_.dispatch_enqueue_cost, [this, &group]() {
      auto descriptor = group.intake_channel.pop();
      if (descriptor) {
        group.central.push_new(std::move(*descriptor), sim_.now());
        // A request arriving with every worker saturated may justify
        // preempting someone already past their slice.
        maybe_preempt_for_waiting_work(group);
      }
      dispatcher_step(group);
    });
    return;
  }
  group.pumping = false;
}

void ShinjukuServer::schedule_slice_check(Group& group, std::size_t worker,
                                          std::uint64_t epoch) {
  sim_.after(config_.time_slice, [this, &group, worker, epoch]() {
    RunningInfo& info = group.running[worker];
    if (!info.active || info.epoch != epoch || info.preempt_in_flight) return;
    if (group.central.empty()) {
      // Informed decision: no waiting work, so let the request keep running
      // and re-check a slice later (§3.4.4 contrasts this with the offload
      // timer that fires regardless).
      schedule_slice_check(group, worker, epoch);
      return;
    }
    issue_preempt(group, worker);
  });
}

void ShinjukuServer::maybe_preempt_for_waiting_work(Group& group) {
  if (group.central.empty()) return;
  if (group.status.pick_least_loaded().has_value()) return;  // someone free
  // Preempt the longest-running worker past its slice, if any.
  std::optional<std::size_t> victim;
  for (std::size_t i = 0; i < group.running.size(); ++i) {
    const RunningInfo& info = group.running[i];
    if (!info.active || info.preempt_in_flight) continue;
    if (sim_.now() - info.assigned_at < config_.time_slice) continue;
    if (!victim || info.assigned_at < group.running[*victim].assigned_at) {
      victim = i;
    }
  }
  if (victim) issue_preempt(group, *victim);
}

void ShinjukuServer::issue_preempt(Group& group, std::size_t worker) {
  RunningInfo& info = group.running[worker];
  info.preempt_in_flight = true;
  ++group.preempts_issued;
  // The dispatcher spends cycles writing the ICR; delivery and the handler
  // entry are modelled by the worker's interrupt line.
  group.dispatcher_core.run(
      group.dispatcher_core.cycles(params_.interrupt_send_cycles),
      [&group, worker]() {
        group.workers[worker]->interrupt_line().send(
            [&group, worker](sim::Duration remaining) {
              group.workers[worker]->on_preempted(remaining);
            });
      });
}

void ShinjukuServer::arm_liveness(Group& group, std::size_t worker,
                                  std::uint64_t epoch) {
  // The dispatch channel is lossless, so the only failure mode is the worker
  // itself going silent mid-request: if the assignment is still active when
  // the timeout fires (same epoch — a newer assignment re-arms its own
  // watchdog), declare the worker dead and re-steer the request.
  sim_.after(config_.reliability.completion_timeout,
             [this, &group, worker, epoch]() {
               RunningInfo& info = group.running[worker];
               if (!info.active || info.epoch != epoch) return;
               ++rel_.timeouts;
               if (!group.status.entry(worker).healthy) return;
               group.status.set_healthy(worker, false);
               ++rel_.worker_deaths;
               group.status.note_retired(worker, sim_.now());
               info.active = false;
               info.preempt_in_flight = false;
               ++rel_.redispatched;
               group.central.push_preempted(info.descriptor, sim_.now());
               dispatcher_kick(group);
             });
}

hw::CpuCore& ShinjukuServer::worker_core_at(std::uint32_t worker) {
  // Workers were pushed round-robin (w % groups) in global order, so the
  // global index maps to group w % G at in-group slot w / G.
  Group& group = *groups_[worker % groups_.size()];
  return group.workers[worker / groups_.size()]->mutable_core();
}

void ShinjukuServer::inject_ingress_loss(double probability,
                                         std::uint64_t seed) {
  network_.set_port_loss(pf_->mac(), probability, seed);
}

void ShinjukuServer::inject_dispatch_loss(double /*probability*/,
                                          std::uint64_t /*seed*/) {}

void ShinjukuServer::inject_ingress_degrade(double factor) {
  network_.set_port_degrade(pf_->mac(), factor);
}

void ShinjukuServer::inject_worker_stall(std::uint32_t worker,
                                         sim::Duration duration) {
  worker_core_at(worker).stall_for(duration);
}

void ShinjukuServer::inject_worker_crash(std::uint32_t worker) {
  worker_core_at(worker).stall();
}

void ShinjukuServer::inject_worker_resume(std::uint32_t worker) {
  worker_core_at(worker).resume();
}

ServerStats ShinjukuServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  for (const auto& group : groups_) {
    stats.requests_received += group->requests_received;
    stats.drops += group->malformed;
    group->central.add_to(stats);
    for (const auto& worker : group->workers) {
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
  }
  stats.drops += nic_.rx_unknown_mac_drops();
  for (std::size_t ring = 0; ring < pf_->ring_count(); ++ring) {
    stats.drops += pf_->ring(ring).stats().dropped;
  }
  stats.reliability = rel_;
  return stats;
}

ServerTelemetry ShinjukuServer::telemetry() const {
  ServerTelemetry t;
  for (const auto& group : groups_) {
    group->central.add_to(t);
    t.queue_depth += group->intake_channel.depth();
    t.outstanding += group->status.total_outstanding();
    t.drops += group->malformed;
    for (const auto& worker : group->workers) {
      t.preemptions += worker->preemptions();
      t.worker_busy.push_back(worker->core().stats().busy);
    }
  }
  t.drops += nic_.rx_unknown_mac_drops();
  for (std::size_t ring = 0; ring < pf_->ring_count(); ++ring) {
    t.drops += pf_->ring(ring).stats().dropped;
  }
  t.retransmits = rel_.retransmits + rel_.note_retransmits;
  t.abandoned = rel_.abandoned;
  return t;
}

}  // namespace nicsched::core
