#include "core/shinjuku_server.h"

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

}  // namespace

// ----------------------------------------------------------------- Worker

/// A Shinjuku worker: receives assignments over a cache-line channel,
/// executes them, responds to the client through the shared NIC, and is
/// preempted by dispatcher-sent posted interrupts. It announces nothing on
/// start: the dispatcher already knows what it assigned.
class ShinjukuServer::Worker final : public HostWorker {
 public:
  Worker(Group& group, std::size_t id, std::size_t global_id)
      : HostWorker(group.server.sim_, group.server.spec_.params,
                   {"worker" + std::to_string(group.index) + "." +
                        std::to_string(id),
                    global_id,
                    static_cast<std::uint32_t>(100 + group.index * 100 + id),
                    group.server.spec_.params.interrupt_delivery_latency,
                    group.server.spec_.params.worker_pop_cost,
                    group.server.spec_.params.cacheline_ipc_cost,
                    hw::PlacementPolicy::kDdioLlc, group.server.pf_,
                    kWorkerPort, group.server.spec_.load_feedback}),
        group_(group),
        id_(id),
        assign_channel_(group.server.sim_,
                        group.server.spec_.params.dedicated_poll_latency) {
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
  /// The payload was DMA'd by DDIO into the LLC and the dispatcher hands out
  /// one request at a time, so the worker's first touch is an LLC hit (never
  /// L1 — another core parsed the packet; never evicted — the centralized
  /// queue holds payloads in the LLC, not on this core).
  std::uint32_t queued_behind() const override { return 0; }
  void notify(Note note, const proto::RequestDescriptor& descriptor) override {
    if (note == Note::kStarted) return;
    group_.note_channel.send(
        StatusNote{id_, note == Note::kPreempted, descriptor});
  }

  Group& group_;
  std::size_t id_;
  hw::MessageChannel<proto::RequestDescriptor> assign_channel_;
};

// -------------------------------------------------------------------- Group

ShinjukuServer::Group::Group(ShinjukuServer& server_ref, std::size_t index_arg,
                             std::size_t worker_count)
    : server(server_ref),
      index(index_arg),
      networker_core(server_ref.sim_,
                     smt_core(server_ref.spec_.params,
                              "networker" + std::to_string(index_arg))),
      dispatcher_core(server_ref.sim_,
                      smt_core(server_ref.spec_.params,
                               "dispatcher" + std::to_string(index_arg))),
      intake_channel(server_ref.sim_,
                     server_ref.spec_.params.cacheline_ipc_latency),
      // Worker completion flags are the dispatcher loop's primary input; it
      // scans the few worker context lines tightly.
      note_channel(server_ref.sim_,
                   server_ref.spec_.params.dedicated_poll_latency),
      central(server_ref.spec_.queue_policy, server_ref.spec_.overload,
              server_ref.spec_.tenant),
      status(worker_count, /*capacity=*/1),
      slice(server_ref.sim_, server_ref.spec_.time_slice,
            server_ref.spec_.preemption_enabled, worker_count, *this),
      held(worker_count) {}

void ShinjukuServer::Group::send_preempt(std::size_t worker) {
  // The dispatcher spends cycles writing the ICR; delivery and the handler
  // entry are modelled by the worker's interrupt line.
  dispatcher_core.run(
      dispatcher_core.cycles(server.spec_.params.interrupt_send_cycles),
      [this, worker]() { workers[worker]->interrupt(); });
}

// ------------------------------------------------------------- the server

ShinjukuServer::ShinjukuServer(sim::Simulator& sim,
                               net::EthernetSwitch& network,
                               const HostSpec& spec)
    : FaultableServer(network, spec.worker_count),
      sim_(sim),
      spec_(spec),
      nic_(sim, nic_config(spec.params)) {
  if (spec_.worker_count == 0) {
    throw std::invalid_argument("ShinjukuServer: need >= 1 worker");
  }
  if (spec_.dispatcher_count == 0 ||
      spec_.dispatcher_count > spec_.worker_count) {
    throw std::invalid_argument(
        "ShinjukuServer: dispatcher_count must be in [1, worker_count]");
  }

  pf_ = &nic_.add_interface("shinjuku-pf", net::MacAddress::from_index(kPfIndex),
                            net::Ipv4Address::from_index(kPfIndex),
                            spec_.dispatcher_count);
  if (spec_.dispatcher_count > 1) {
    // §2.2: "RSS can be used to route packets from the NIC to different
    // dispatchers, but this can again result in load imbalance."
    pf_->use_rss();
  }
  nic_.attach_to_switch(network, spec_.params.stingray_port_latency,
                        spec_.params.line_rate_gbps);

  // Partition workers round-robin so uneven counts stay near-balanced:
  // global worker w is slot w / G of group w % G.
  const std::size_t groups = spec_.dispatcher_count;
  for (std::size_t g = 0; g < groups; ++g) {
    groups_.push_back(std::make_unique<Group>(
        *this, g, (spec_.worker_count - g + groups - 1) / groups));
  }
  for (std::size_t w = 0; w < spec_.worker_count; ++w) {
    Group& group = *groups_[w % groups];
    workers_.push_back(
        std::make_unique<Worker>(group, group.workers.size(), w));
    group.workers.push_back(workers_.back().get());
  }
  for (auto& group_ptr : groups_) {
    Group& group = *group_ptr;
    group.networker_pump = std::make_unique<PacketPump>(
        group.networker_core, pf_->ring(group.index),
        spec_.params.networker_parse_cost, [this, &group](net::Packet packet) {
          networker_handle(group, packet);
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

void ShinjukuServer::networker_handle(Group& group,
                                      const net::Packet& packet) {
  // Admission is scoped to this group's queue plus its intake backlog. A
  // hedge cancel's control 5-tuple need not hash to the group that queued
  // the request, so it marks every group's queue; a mark that never matches
  // is harmless (ids are unique per run).
  nic_ingress(
      sim_,
      {*pf_, kRequestPort, static_cast<std::uint32_t>(group.index),
       "networker", group.requests_received, group.malformed},
      packet, group.central, group.intake_channel.depth(),
      [this](std::uint64_t id) {
        for (auto& other : groups_) other->central.cancel(id);
      },
      [&group](proto::RequestDescriptor descriptor) {
        group.intake_channel.send(std::move(descriptor));
      });
}

void ShinjukuServer::dispatcher_kick(Group& group) {
  if (group.pumping) return;
  group.pumping = true;
  dispatcher_step(group);
}

void ShinjukuServer::dispatcher_step(Group& group) {
  const ModelParams& params = spec_.params;
  if (!group.note_channel.empty()) {
    group.dispatcher_core.run(params.dispatch_note_cost, [this, &group]() {
      auto note = group.note_channel.pop();
      if (note && reliable() && !group.status.entry(note->worker).healthy) {
        // Any note proves the worker is alive again.
        group.status.set_healthy(note->worker, true);
        ++rel_.revivals;
      }
      if (note && reliable() &&
          (!group.slice.running(note->worker) ||
           group.held[note->worker].request_id !=
               note->descriptor.request_id)) {
        // Stale note for a request the liveness watchdog already
        // re-steered; retiring it would corrupt the bookkeeping of
        // whatever the worker was assigned next.
        ++rel_.duplicates;
      } else if (note) {
        group.status.note_retired(note->worker, sim_.now());
        group.slice.stop(note->worker);
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
        params.dispatch_assign_cost + params.cacheline_ipc_cost,
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
              // The slice token is a per-worker epoch, bumped on every
              // assignment, so a re-assignment of the same request never
              // matches an older run's check.
              const std::uint64_t epoch = group.slice.token(*worker) + 1;
              group.slice.start(*worker, epoch);
              if (reliable()) {
                group.held[*worker] = *descriptor;
                arm_liveness(group, *worker, epoch);
              }
              if (spec_.load_feedback) {
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
    group.dispatcher_core.run(params.dispatch_enqueue_cost, [this, &group]() {
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

void ShinjukuServer::maybe_preempt_for_waiting_work(Group& group) {
  if (group.central.empty()) return;
  if (group.status.pick_least_loaded().has_value()) return;  // someone free
  // Preempt the longest-running worker past its slice, if any.
  if (const auto victim = group.slice.longest_overdue()) {
    group.slice.preempt(*victim);
  }
}

void ShinjukuServer::arm_liveness(Group& group, std::size_t worker,
                                  std::uint64_t epoch) {
  // The dispatch channel is lossless, so the only failure mode is the worker
  // itself going silent mid-request: if the assignment is still active when
  // the timeout fires (same epoch — a newer assignment re-arms its own
  // watchdog), declare the worker dead and re-steer the request.
  sim_.after(spec_.reliability.completion_timeout,
             [this, &group, worker, epoch]() {
               if (!group.slice.running(worker) ||
                   group.slice.token(worker) != epoch) {
                 return;
               }
               ++rel_.timeouts;
               if (!group.status.entry(worker).healthy) return;
               group.status.set_healthy(worker, false);
               ++rel_.worker_deaths;
               group.status.note_retired(worker, sim_.now());
               group.slice.stop(worker);
               ++rel_.redispatched;
               group.central.push_preempted(group.held[worker], sim_.now());
               dispatcher_kick(group);
             });
}

hw::CpuCore& ShinjukuServer::worker_core(std::uint32_t worker) {
  return workers_[worker]->core();
}

std::uint64_t ShinjukuServer::drops() const {
  std::uint64_t drops = nic_.rx_unknown_mac_drops();
  for (const auto& group : groups_) drops += group->malformed;
  for (std::size_t ring = 0; ring < pf_->ring_count(); ++ring) {
    drops += pf_->ring(ring).stats().dropped;
  }
  return drops;
}

ServerStats ShinjukuServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  for (const auto& group : groups_) {
    stats.requests_received += group->requests_received;
    group->central.add_to(stats);
  }
  // Global worker order, the order FaultSchedule worker indices use.
  for (const auto& worker : workers_) worker->counters().add_to(stats, elapsed);
  stats.drops = drops();
  stats.reliability = rel_;
  return stats;
}

ServerTelemetry ShinjukuServer::telemetry() const {
  ServerTelemetry t;
  for (const auto& group : groups_) {
    group->central.add_to(t);
    t.queue_depth += group->intake_channel.depth();
    t.outstanding += group->status.total_outstanding();
  }
  for (const auto& worker : workers_) worker->counters().add_to(t);
  t.drops = drops();
  t.retransmits = rel_.retransmits + rel_.note_retransmits;
  t.abandoned = rel_.abandoned;
  return t;
}

}  // namespace nicsched::core
