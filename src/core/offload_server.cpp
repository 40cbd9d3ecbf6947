#include "core/offload_server.h"

#include <memory_resource>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/span.h"
#include "sim/arena.h"

namespace nicsched::core {

namespace {

constexpr std::uint32_t kArmNetIndex = 1000;
constexpr std::uint32_t kArmDispIndex = 1001;
constexpr std::uint32_t kWorkerBaseIndex = 1100;
constexpr std::uint16_t kDispatchPort = 8081;
constexpr std::uint16_t kWorkerPort = 8082;

net::Nic::Config arm_nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "stingray-arm";
  config.rx_latency = params.arm_nic_rx;
  config.tx_latency = params.arm_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

net::Nic::Config host_nic_config(const ModelParams& params) {
  net::Nic::Config config;
  config.name = "stingray-host";
  config.rx_latency = params.host_nic_rx;
  config.tx_latency = params.host_nic_tx;
  config.ring_capacity = params.ring_capacity;
  return config;
}

hw::CpuCore::Config arm_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;  // costs are in reference time
  config.time_scale = params.arm_time_scale;
  return config;
}

hw::CpuCore::Config host_core(const ModelParams& params, std::string name) {
  hw::CpuCore::Config config;
  config.name = std::move(name);
  config.frequency = params.host_frequency;
  return config;
}

}  // namespace

// ---------------------------------------------------------------- Worker

/// One host worker: a Dune/DPDK thread pinned to its own hyperthread,
/// polling its own SR-IOV virtual function (§3.4.3).
class ShinjukuOffloadServer::Worker {
 public:
  Worker(ShinjukuOffloadServer& server, std::size_t id,
         net::NicInterface& vf)
      : server_(server),
        id_(id),
        vf_(vf),
        core_(server.sim_,
              host_core(server.spec_.params, "worker" + std::to_string(id))),
        timer_(server.sim_, core_, server.spec_.timer_costs) {
    vf_.ring(0).set_on_packet([this]() {
      if (idle_) start_next();
    });
  }

  /// Fault-injection handle: the stall/crash hooks land on this core.
  hw::CpuCore& core() { return core_; }
  WorkerCounters counters() const {
    return WorkerCounters{responses_sent_, preemptions_,
                          timer_.spurious_count(), ddio_, core_.stats().busy};
  }

 private:
  void start_next() {
    auto packet = vf_.ring(0).pop();
    if (!packet) {
      idle_ = true;
      return;
    }
    idle_ = false;
    // Newer payloads stacked behind this one may have evicted it downward.
    const auto queued_behind =
        static_cast<std::uint32_t>(vf_.ring(0).depth());

    // Pop + parse the assignment (including the payload's first touch at
    // whatever cache level it survived); arming the preemption timer costs
    // 40 cycles through the Dune-mapped APIC registers (§3.4.4).
    sim::Duration prologue =
        server_.spec_.params.worker_pop_cost +
        hw::payload_touch_cost(server_.placement_,
                               server_.spec_.params.cache_costs, queued_behind,
                               ddio_);
    if (server_.spec_.preemption_enabled) {
      prologue += timer_.set_cost();
    }
    core_.run(prologue, [this, p = std::move(*packet)]() {
      // Queue sojourn at this worker: frame arrival at the VF to the start
      // of handling. Piggybacked on the feedback note so the dispatcher's
      // adaptive-K governor sees per-worker backlog (DESIGN §11).
      current_sojourn_ = server_.sim_.now() - p.rx_at();
      const auto datagram = net::parse_udp_datagram(p);
      if (!datagram) {
        start_next();
        return;
      }
      if (server_.reliable()) {
        handle_reliable_frame(*datagram);
        return;
      }
      auto descriptor = proto::RequestDescriptor::parse(
          datagram->payload, proto::MessageType::kAssignment);
      if (!descriptor) {
        start_next();
        return;
      }
      begin_assignment(*descriptor);
    });
  }

  /// Reliable-mode demux of a frame popped from the VF ring: a sequenced
  /// assignment (ack + dedupe + execute) or a note ack.
  void handle_reliable_frame(const net::UdpDatagramView& datagram) {
    const auto type = proto::peek_type(datagram.payload);
    if (type == proto::MessageType::kNoteAck) {
      const auto ack = proto::AckMessage::parse(datagram.payload,
                                                proto::MessageType::kNoteAck);
      if (ack) handle_note_ack(*ack);
      start_next();
      return;
    }
    if (type == proto::MessageType::kSequencedAssignment) {
      auto assignment = proto::SequencedAssignment::parse(datagram.payload);
      if (!assignment) {
        start_next();
        return;
      }
      // Ack receipt inline so the dispatcher stops retransmitting; a
      // duplicate (retransmitted copy of work already accepted) is re-acked
      // but not executed twice.
      proto::AckMessage ack;
      ack.seq = assignment->seq;
      ack.worker_id = static_cast<std::uint32_t>(id_);
      auto& scratch = proto::serialization_scratch();
      ack.serialize_into(proto::MessageType::kDispatchAck, scratch);
      vf_.transmit(net::make_udp_datagram(dispatcher_address(), scratch));
      if (!seen_assign_seqs_.insert(assignment->seq)) {
        ++server_.reliable_.stats().duplicates;
        start_next();
        return;
      }
      begin_assignment(assignment->descriptor);
      return;
    }
    start_next();
  }

  void begin_assignment(const proto::RequestDescriptor& descriptor) {
    parked_ = descriptor;
    if (parked_.preempt_count > 0) {
      // Resuming a previously preempted request: restore its context
      // (stack + registers) from host DRAM.
      core_.run(server_.spec_.params.context_restore_cost,
                [this]() { execute(parked_); });
    } else {
      execute(parked_);
    }
  }

  void execute(const proto::RequestDescriptor& descriptor) {
    server_.sim_.trace(sim::TraceCategory::kWorker, [&] {
      return std::pair{"worker" + std::to_string(id_),
                       "start " + std::to_string(descriptor.request_id)};
    });
    if (server_.sim_.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(server_.sim_, descriptor.request_id,
                    obs::SpanKind::kDispatch, lane);
      obs::begin_span(server_.sim_, descriptor.request_id,
                      obs::SpanKind::kService, lane);
    }
    current_ = descriptor;
    if (server_.spec_.preemption_enabled) {
      timer_.arm(server_.spec_.time_slice,
                 [this](sim::Duration remaining) { on_preempted(remaining); });
    }
    core_.run_preemptible(
        sim::Duration::picos(static_cast<std::int64_t>(descriptor.remaining_ps)),
        [this]() { on_complete(); });
  }

  void on_complete() {
    timer_.cancel();
    server_.sim_.trace(sim::TraceCategory::kWorker, [&] {
      return std::pair{"worker" + std::to_string(id_),
                       "complete " + std::to_string(current_->request_id)};
    });
    if (server_.sim_.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(server_.sim_, current_->request_id,
                    obs::SpanKind::kService, lane);
      obs::begin_span(server_.sim_, current_->request_id,
                      obs::SpanKind::kResponse, lane);
    }
    parked_ = *current_;
    current_.reset();

    // Respond to the client directly, then notify the dispatcher (§3.4
    // step 5); both are frames built and sent by this worker.
    core_.run(server_.spec_.params.response_build_cost, [this]() {
      const proto::RequestDescriptor& descriptor = parked_;
      net::DatagramAddress address;
      address.src_mac = vf_.mac();
      address.dst_mac = descriptor.client_mac;
      address.src_ip = vf_.ip();
      address.dst_ip = descriptor.client_ip;
      address.src_port = kWorkerPort;
      address.dst_port = descriptor.client_port;
      auto& scratch = proto::serialization_scratch();
      auto response = make_response(descriptor);
      if (server_.spec_.load_feedback) {
        // Echo the worker's queue-sojourn sample client-ward (DESIGN §12)
        // so the ToR layer can snoop per-server load off this response.
        response.has_sojourn = true;
        response.sojourn_ps =
            static_cast<std::uint64_t>(current_sojourn_.to_picos());
      }
      response.serialize_into(scratch);
      vf_.transmit(net::make_udp_datagram(address, scratch));
      ++responses_sent_;

      core_.run(server_.spec_.params.packet_build_cost, [this]() {
        if (server_.reliable()) {
          send_note(false, parked_);
        } else {
          proto::CompletionMessage completion;
          completion.request_id = parked_.request_id;
          completion.worker_id = static_cast<std::uint32_t>(id_);
          if (sojourn_sampling()) {
            completion.has_sojourn = true;
            completion.sojourn_ps =
                static_cast<std::uint64_t>(current_sojourn_.to_picos());
          }
          auto& completion_scratch = proto::serialization_scratch();
          completion.serialize_into(completion_scratch);
          vf_.transmit(
              net::make_udp_datagram(dispatcher_address(), completion_scratch));
        }
        start_next();
      });
    });
  }

  void on_preempted(sim::Duration remaining) {
    ++preemptions_;
    server_.sim_.trace(sim::TraceCategory::kPreempt, [&] {
      return std::pair{"worker" + std::to_string(id_),
                       "preempt " + std::to_string(current_->request_id) +
                           " remaining " + remaining.to_string()};
    });
    if (server_.sim_.span_enabled()) {
      const auto lane = static_cast<std::uint32_t>(100 + id_);
      obs::end_span(server_.sim_, current_->request_id,
                    obs::SpanKind::kService, lane);
      obs::begin_span(server_.sim_, current_->request_id,
                      obs::SpanKind::kRequeue, lane);
    }
    parked_ = *current_;
    current_.reset();
    parked_.remaining_ps = static_cast<std::uint64_t>(remaining.to_picos());
    parked_.preempt_count =
        static_cast<std::uint16_t>(parked_.preempt_count + 1);

    // Save the context to host DRAM, then ship the descriptor back to the
    // dispatcher as a preemption notification.
    const sim::Duration cost = server_.spec_.params.context_save_cost +
                               server_.spec_.params.packet_build_cost;
    core_.run(cost, [this]() {
      const proto::RequestDescriptor& descriptor = parked_;
      if (server_.reliable()) {
        send_note(true, descriptor);
      } else {
        auto& scratch = proto::serialization_scratch();
        descriptor.serialize_into(proto::MessageType::kPreemption, scratch);
        vf_.transmit(net::make_udp_datagram(dispatcher_address(), scratch));
      }
      start_next();
    });
  }

  /// Reliable mode: ship a sequenced completion/preemption note and keep
  /// retransmitting it (capped exponential backoff) until the dispatcher
  /// acks. A lost note would otherwise leak a dispatcher slot forever.
  void send_note(bool preempted, const proto::RequestDescriptor& descriptor) {
    proto::SequencedNote note;
    note.seq = next_note_seq_++;
    note.worker_id = static_cast<std::uint32_t>(id_);
    note.preempted = preempted;
    note.descriptor = descriptor;
    if (sojourn_sampling()) {
      note.has_sojourn = true;
      note.sojourn_ps =
          static_cast<std::uint64_t>(current_sojourn_.to_picos());
    }
    PendingNote pending;
    pending.note = note;
    pending.next_rto = server_.spec_.reliability.rto;
    transmit_note(note);
    pending.timer = server_.sim_.after(
        pending.next_rto, [this, seq = note.seq]() { retransmit_note(seq); });
    pending_notes_.emplace(note.seq, pending);
  }

  /// Sends one copy of a note, serialized into the shared scratch buffer.
  void transmit_note(const proto::SequencedNote& note) {
    auto& scratch = proto::serialization_scratch();
    note.serialize_into(scratch);
    vf_.transmit(net::make_udp_datagram(dispatcher_address(), scratch));
  }

  void retransmit_note(std::uint64_t seq) {
    auto it = pending_notes_.find(seq);
    if (it == pending_notes_.end()) return;
    PendingNote& pending = it->second;
    if (!core_.stalled()) {
      // A crashed/stalled worker is silent; it catches up after resume. The
      // resend bypasses core_.run on purpose: the NIC DMA engine does the
      // work, and routing it through the core would violate
      // run_preemptible's idle requirement.
      ++server_.reliable_.stats().note_retransmits;
      transmit_note(pending.note);
      sim::Duration next =
          pending.next_rto * server_.spec_.reliability.backoff;
      const sim::Duration cap = server_.spec_.reliability.rto * 8.0;
      pending.next_rto = next > cap ? cap : next;
    }
    pending.timer = server_.sim_.after(pending.next_rto,
                                       [this, seq]() { retransmit_note(seq); });
  }

  void handle_note_ack(const proto::AckMessage& ack) {
    auto it = pending_notes_.find(ack.seq);
    if (it == pending_notes_.end()) return;
    it->second.timer.cancel();
    pending_notes_.erase(it);
  }

  bool sojourn_sampling() const {
    return server_.spec_.overload.enabled &&
           server_.spec_.overload.adaptive_k_enabled;
  }

  net::DatagramAddress dispatcher_address() const {
    net::DatagramAddress address;
    address.src_mac = vf_.mac();
    address.dst_mac = server_.arm_disp_->mac();
    address.src_ip = vf_.ip();
    address.dst_ip = server_.arm_disp_->ip();
    address.src_port = kWorkerPort;
    address.dst_port = kDispatchPort;
    return address;
  }

  ShinjukuOffloadServer& server_;
  std::size_t id_;
  net::NicInterface& vf_;
  hw::CpuCore core_;
  hw::ApicTimer timer_;
  bool idle_ = true;
  std::optional<proto::RequestDescriptor> current_;
  /// The descriptor of the op chain in flight on core_ (context restore
  /// before service; response, note or preemption frames after it). One
  /// chain runs at a time, so it parks here and each op captures only
  /// `this`: a captured descriptor would spill out of SmallFn.
  proto::RequestDescriptor parked_;
  /// Sojourn of the most recently popped frame (see start_next).
  sim::Duration current_sojourn_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t responses_sent_ = 0;
  hw::DdioStats ddio_;

  // --- reliable mode only --------------------------------------------------
  /// An unacked outgoing note, re-serialized on every resend until the
  /// dispatcher confirms.
  struct PendingNote {
    proto::SequencedNote note;
    sim::Duration next_rto;
    sim::EventHandle timer;
  };
  SeqBitmap seen_assign_seqs_;
  sim::ArenaResource pending_arena_;  // declared before the map it feeds
  std::pmr::unordered_map<std::uint64_t, PendingNote> pending_notes_{
      &pending_arena_};  // by seq
  std::uint64_t next_note_seq_ = 1;
};

// ------------------------------------------------------------- the server

ShinjukuOffloadServer::ShinjukuOffloadServer(sim::Simulator& sim,
                                             net::EthernetSwitch& network,
                                             const HostSpec& spec)
    : FaultableServer(network, spec.worker_count),
      sim_(sim),
      spec_(spec),
      placement_(spec.placement.value_or(hw::PlacementPolicy::kDdioLlc)),
      arm_nic_(sim, arm_nic_config(spec.params)),
      networker_core_(sim, arm_core(spec.params, "arm-networker")),
      d1_core_(sim, arm_core(spec.params, "arm-d1-queue")),
      d3_core_(sim, arm_core(spec.params, "arm-d3-poll")),
      intake_channel_(sim, spec.params.cacheline_ipc_latency),
      note_channel_(sim, spec.params.cacheline_ipc_latency),
      central_(spec.queue_policy, spec.overload, spec.tenant),
      status_(spec.worker_count, spec.outstanding_per_worker),
      host_nic_(sim, host_nic_config(spec.params)),
      adaptive_k_(spec.overload, spec.worker_count,
                  spec.outstanding_per_worker),
      reliable_(sim, spec.reliability, status_,
                spec.overload.enabled && spec.overload.adaptive_k_enabled
                    ? &adaptive_k_
                    : nullptr,
                "d1",
                {[this](std::size_t worker,
                        const proto::RequestDescriptor& descriptor,
                        std::uint64_t seq) {
                   send_assignment(Assignment{descriptor, worker, seq});
                 },
                 [this](proto::RequestDescriptor descriptor) {
                   central_.push_preempted(std::move(descriptor), sim_.now());
                 },
                 [this]() { d1_kick(); }}) {
  if (spec_.worker_count == 0) {
    throw std::invalid_argument("ShinjukuOffloadServer: need >= 1 worker");
  }
  if (spec_.outstanding_per_worker == 0) {
    throw std::invalid_argument("ShinjukuOffloadServer: K must be >= 1");
  }
  if (spec_.sender_cores == 0 || spec_.sender_cores > 5) {
    // The paper's prototype uses one D2 core; the Stingray has 8 ARM cores,
    // so up to 5 can play D2 alongside the networker, D1, and D3.
    throw std::invalid_argument(
        "ShinjukuOffloadServer: sender_cores must be in [1, 5]");
  }
  arm_net_ = &arm_nic_.add_interface("arm-net",
                                     net::MacAddress::from_index(kArmNetIndex),
                                     net::Ipv4Address::from_index(kArmNetIndex));
  arm_disp_ = &arm_nic_.add_interface(
      "arm-disp", net::MacAddress::from_index(kArmDispIndex),
      net::Ipv4Address::from_index(kArmDispIndex));
  arm_nic_.attach_to_switch(network, spec_.params.stingray_port_latency,
                            spec_.params.line_rate_gbps);
  if (spec_.tx_batch_frames > 0) {
    arm_disp_->enable_tx_batching(spec_.tx_batch_frames,
                                  spec_.tx_batch_timeout);
  }

  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    const std::uint32_t index =
        kWorkerBaseIndex + static_cast<std::uint32_t>(i);
    host_nic_.add_interface("vf" + std::to_string(i),
                            net::MacAddress::from_index(index),
                            net::Ipv4Address::from_index(index));
  }
  host_nic_.attach_to_switch(network, spec_.params.stingray_port_latency,
                             spec_.params.line_rate_gbps);

  networker_pump_ = std::make_unique<PacketPump>(
      networker_core_, arm_net_->ring(0), spec_.params.networker_parse_cost,
      [this](net::Packet packet) { networker_handle(packet); });
  d3_pump_ = std::make_unique<PacketPump>(
      d3_core_, arm_disp_->ring(0), spec_.params.notification_parse_cost,
      [this](net::Packet packet) { d3_handle(std::move(packet)); });
  for (std::size_t i = 0; i < spec_.sender_cores; ++i) {
    SenderCore sender;
    sender.core = std::make_unique<hw::CpuCore>(
        sim, arm_core(spec_.params, "arm-d2-send" + std::to_string(i)));
    sender.channel = std::make_unique<hw::MessageChannel<Assignment>>(
        sim, spec_.params.dedicated_poll_latency);
    sender.pump = std::make_unique<ChannelPump<Assignment>>(
        *sender.core, *sender.channel, spec_.params.packet_build_cost,
        [this](Assignment assignment) { d2_send(std::move(assignment)); });
    senders_.push_back(std::move(sender));
  }

  intake_channel_.set_on_message([this]() { d1_kick(); });
  note_channel_.set_on_message([this]() { d1_kick(); });

  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        *this, i,
        *host_nic_.interface_by_mac(net::MacAddress::from_index(
            kWorkerBaseIndex + static_cast<std::uint32_t>(i)))));
  }
  seen_note_seqs_.resize(spec_.worker_count);
}

ShinjukuOffloadServer::~ShinjukuOffloadServer() = default;

net::MacAddress ShinjukuOffloadServer::ingress_mac() const {
  return arm_net_->mac();
}

net::Ipv4Address ShinjukuOffloadServer::ingress_ip() const {
  return arm_net_->ip();
}

void ShinjukuOffloadServer::networker_handle(const net::Packet& packet) {
  // The networker judges admission against D1's queue plus the intake
  // backlog before spending any dispatcher work.
  nic_ingress(
      sim_,
      {*arm_net_, kRequestPort, 0, "networker", requests_received_,
       malformed_},
      packet, central_, intake_channel_.depth(),
      [this](std::uint64_t id) { central_.cancel(id); },
      [this](proto::RequestDescriptor descriptor) {
        intake_channel_.send(std::move(descriptor));
      });
}

void ShinjukuOffloadServer::d1_kick() {
  if (d1_pumping_) return;
  d1_pumping_ = true;
  d1_step();
}

// D1's poll loop: worker notifications first (they free capacity), then
// assignments, then intake of new requests. One operation per iteration so
// the ARM core's speed bounds dispatcher throughput.
void ShinjukuOffloadServer::d1_step() {
  if (!note_channel_.empty()) {
    d1_core_.run(spec_.params.dispatch_note_cost, [this]() {
      auto note = note_channel_.pop();
      if (note) {
        status_.note_retired(note->worker, sim_.now());
        if (spec_.overload.enabled && spec_.overload.adaptive_k_enabled &&
            note->has_sojourn) {
          // Adaptive-K backpressure: fold the piggybacked sojourn sample and
          // apply the governor's bound to the status table immediately — or,
          // under a nonzero feedback-staleness knob (DESIGN §15), after the
          // configured lag, modelling a control loop whose load signal
          // trails the data path.
          const std::size_t sojourn_worker = note->worker;
          const sim::Duration sojourn = sim::Duration::picos(
              static_cast<std::int64_t>(note->sojourn_ps));
          if (spec_.feedback_staleness.is_zero()) {
            status_.set_capacity(sojourn_worker,
                                 static_cast<std::uint32_t>(
                                     adaptive_k_.observe_sojourn(sojourn_worker,
                                                                 sojourn)));
          } else {
            sim_.after(spec_.feedback_staleness,
                       [this, sojourn_worker, sojourn]() {
                         status_.set_capacity(
                             sojourn_worker,
                             static_cast<std::uint32_t>(
                                 adaptive_k_.observe_sojourn(sojourn_worker,
                                                             sojourn)));
                       });
          }
        }
        if (note->preempted) {
          ++preemption_requeues_;
          sim_.trace(sim::TraceCategory::kQueue, [&] {
            return std::pair{std::string("d1"),
                             "requeue " +
                                 std::to_string(note->descriptor.request_id)};
          });
          central_.push_preempted(std::move(note->descriptor), sim_.now());
        }
      }
      d1_step();
    });
    return;
  }
  if (!central_.empty() && status_.pick_least_loaded().has_value()) {
    d1_core_.run(spec_.params.dispatch_assign_cost, [this]() {
      const auto worker = status_.pick_least_loaded();
      if (worker) {
        sim::Duration queue_delay;
        auto descriptor = central_.pop(sim_.now(), queue_delay);
        if (descriptor) {
          // Stamp the congestion feedback the response will carry (§5.2).
          descriptor->queue_depth =
              static_cast<std::uint32_t>(central_.depth());
          status_.note_sent(*worker, sim_.now());
          sim_.trace(sim::TraceCategory::kDispatch, [&] {
            return std::pair{std::string("d1"),
                             "assign " +
                                 std::to_string(descriptor->request_id) +
                                 " -> worker" + std::to_string(*worker)};
          });
          if (sim_.span_enabled()) {
            obs::end_span(sim_, descriptor->request_id,
                          descriptor->preempt_count > 0
                              ? obs::SpanKind::kRequeue
                              : obs::SpanKind::kDispatchQueue,
                          1);
            obs::begin_span(sim_, descriptor->request_id,
                            obs::SpanKind::kDispatch, 1);
          }
          std::uint64_t seq = 0;
          if (reliable()) {
            seq = next_seq_++;
            reliable_.track(*descriptor, *worker, seq);
          }
          send_assignment(Assignment{std::move(*descriptor), *worker, seq});
        }
      }
      d1_step();
    });
    return;
  }
  if (!intake_channel_.empty()) {
    d1_core_.run(spec_.params.dispatch_enqueue_cost, [this]() {
      auto descriptor = intake_channel_.pop();
      if (descriptor) central_.push_new(std::move(*descriptor), sim_.now());
      d1_step();
    });
    return;
  }
  d1_pumping_ = false;
}

void ShinjukuOffloadServer::send_assignment(Assignment assignment) {
  senders_[next_sender_].channel->send(std::move(assignment));
  next_sender_ = (next_sender_ + 1) % senders_.size();
}

void ShinjukuOffloadServer::d2_send(Assignment assignment) {
  const auto& vf = *host_nic_.interface_by_mac(net::MacAddress::from_index(
      kWorkerBaseIndex + static_cast<std::uint32_t>(assignment.worker)));
  net::DatagramAddress address;
  address.src_mac = arm_disp_->mac();
  address.dst_mac = vf.mac();
  address.src_ip = arm_disp_->ip();
  address.dst_ip = vf.ip();
  address.src_port = kDispatchPort;
  address.dst_port = kWorkerPort;
  if (assignment.seq != 0) {
    proto::SequencedAssignment sequenced;
    sequenced.seq = assignment.seq;
    sequenced.descriptor = std::move(assignment.descriptor);
    auto& scratch = proto::serialization_scratch();
    sequenced.serialize_into(scratch);
    arm_disp_->transmit(net::make_udp_datagram(address, scratch));
    return;
  }
  auto& scratch = proto::serialization_scratch();
  assignment.descriptor.serialize_into(proto::MessageType::kAssignment,
                                       scratch);
  arm_disp_->transmit(net::make_udp_datagram(address, scratch));
}

void ShinjukuOffloadServer::d3_handle(net::Packet packet) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram) {
    ++malformed_;
    return;
  }
  // Identify the worker by the source MAC of its virtual function.
  const net::NicInterface* vf = host_nic_.interface_by_mac(datagram->eth.src);
  if (vf == nullptr) {
    ++malformed_;
    return;
  }
  std::size_t worker_id = 0;
  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    if (net::MacAddress::from_index(kWorkerBaseIndex +
                                    static_cast<std::uint32_t>(i)) ==
        datagram->eth.src) {
      worker_id = i;
      break;
    }
  }

  const auto type = proto::peek_type(datagram->payload);
  if (reliable()) {
    if (type == proto::MessageType::kDispatchAck) {
      const auto ack = proto::AckMessage::parse(
          datagram->payload, proto::MessageType::kDispatchAck);
      if (ack) {
        reliable_.note_alive(worker_id);
        reliable_.ack(worker_id, ack->seq);
      } else {
        ++malformed_;
      }
      return;
    }
    if (type == proto::MessageType::kSequencedNote) {
      auto note = proto::SequencedNote::parse(datagram->payload);
      if (note) {
        handle_sequenced_note(worker_id, std::move(*note));
      } else {
        ++malformed_;
      }
      return;
    }
  }
  if (type == proto::MessageType::kCompletion) {
    const auto completion = proto::CompletionMessage::parse(datagram->payload);
    if (completion) {
      Note note{worker_id, false, {}};
      note.has_sojourn = completion->has_sojourn;
      note.sojourn_ps = completion->sojourn_ps;
      note_channel_.send(std::move(note));
    } else {
      ++malformed_;
    }
  } else if (type == proto::MessageType::kPreemption) {
    auto descriptor = proto::RequestDescriptor::parse(
        datagram->payload, proto::MessageType::kPreemption);
    if (descriptor) {
      note_channel_.send(Note{worker_id, true, std::move(*descriptor)});
    } else {
      ++malformed_;
    }
  } else {
    ++malformed_;
  }
}

// -------------------------------------------- reliable dispatch (DESIGN §9)

void ShinjukuOffloadServer::handle_sequenced_note(std::size_t worker,
                                                  proto::SequencedNote note) {
  // Ack immediately — even duplicates — so the worker stops resending.
  proto::AckMessage ack;
  ack.seq = note.seq;
  ack.worker_id = note.worker_id;
  const auto& vf = *host_nic_.interface_by_mac(net::MacAddress::from_index(
      kWorkerBaseIndex + static_cast<std::uint32_t>(worker)));
  net::DatagramAddress address;
  address.src_mac = arm_disp_->mac();
  address.dst_mac = vf.mac();
  address.src_ip = arm_disp_->ip();
  address.dst_ip = vf.ip();
  address.src_port = kDispatchPort;
  address.dst_port = kWorkerPort;
  auto& scratch = proto::serialization_scratch();
  ack.serialize_into(proto::MessageType::kNoteAck, scratch);
  arm_disp_->transmit(net::make_udp_datagram(address, scratch));

  reliable_.note_alive(worker);
  if (!seen_note_seqs_[worker].insert(note.seq)) {
    ++reliable_.stats().duplicates;
    return;
  }
  if (!reliable_.retire(worker, note.descriptor.request_id,
                        !note.preempted)) {
    return;
  }
  Note out{worker, note.preempted, std::move(note.descriptor)};
  out.has_sojourn = note.has_sojourn;
  out.sojourn_ps = note.sojourn_ps;
  note_channel_.send(std::move(out));
}

// ----------------------------------------------------- fault::FaultSurface

void ShinjukuOffloadServer::inject_dispatch_loss(double probability,
                                                 std::uint64_t seed) {
  // Dispatcher→worker frames (assignments, note acks) leave on the ARM
  // NIC's uplink; worker→dispatcher frames (acks, notes) come back through
  // the switch port toward arm-disp. The host NIC's uplink stays clean —
  // it also carries worker→client responses, which this fault must not eat.
  arm_nic_.set_uplink_loss(probability, seed);
  network_.set_port_loss(arm_disp_->mac(), probability,
                         probability > 0.0 ? seed + 1 : 0);
}

hw::CpuCore& ShinjukuOffloadServer::worker_core(std::uint32_t worker) {
  return workers_[worker]->core();
}

std::uint64_t ShinjukuOffloadServer::drops() const {
  std::uint64_t drops = arm_nic_.rx_unknown_mac_drops() +
                        host_nic_.rx_unknown_mac_drops() + malformed_ +
                        arm_net_->ring(0).stats().dropped +
                        arm_disp_->ring(0).stats().dropped;
  for (std::size_t i = 0; i < spec_.worker_count; ++i) {
    // Ring overflow on a worker VF would break the dispatcher's outstanding
    // accounting; surfacing it in drops makes that visible.
    const auto* vf = host_nic_.interface_by_mac(net::MacAddress::from_index(
        kWorkerBaseIndex + static_cast<std::uint32_t>(i)));
    drops += vf->ring(0).stats().dropped;
  }
  return drops;
}

ServerStats ShinjukuOffloadServer::stats(sim::Duration elapsed) const {
  ServerStats stats;
  stats.requests_received = requests_received_;
  for (const auto& worker : workers_) worker->counters().add_to(stats, elapsed);
  stats.drops = drops();
  stats.reliability = reliable_.stats();
  central_.add_to(stats);
  stats.overload.k_shrinks = adaptive_k_.shrinks();
  stats.overload.k_restores = adaptive_k_.restores();
  return stats;
}

ServerTelemetry ShinjukuOffloadServer::telemetry() const {
  ServerTelemetry t;
  central_.add_to(t);
  t.queue_depth += intake_channel_.depth();
  t.outstanding = status_.total_outstanding();
  t.drops = drops();
  const ReliabilityStats& rel = reliable_.stats();
  t.retransmits = rel.retransmits + rel.note_retransmits;
  t.abandoned = rel.abandoned;
  t.worker_busy.reserve(workers_.size());
  t.worker_capacity.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->counters().add_to(t);
    t.worker_capacity.push_back(status_.entry(i).capacity);
  }
  return t;
}

}  // namespace nicsched::core
