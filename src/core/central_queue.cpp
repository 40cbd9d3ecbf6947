#include "core/central_queue.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/span.h"

namespace nicsched::core {

CentralQueue::CentralQueue(QueuePolicy policy,
                           const overload::OverloadParams& overload,
                           const tenant::TenantParams& tenant)
    : overload_on_(overload.enabled),
      tenant_params_(tenant),
      queue_(policy),
      admission_(overload) {
  const bool shed = overload.enabled && overload.shedding_enabled;
  queue_.set_shed_expired(shed);
  if (tenant.enabled) {
    tenant_queue_ = std::make_unique<tenant::TenantDispatchQueue>(tenant);
    tenant_queue_->set_shed_expired(shed);
    if (overload.enabled) {
      tenant_admission_ =
          std::make_unique<tenant::TenantAdmission>(tenant, overload);
    }
  }
}

bool CentralQueue::empty() const {
  return tenant_queue_ ? tenant_queue_->empty() : queue_.empty();
}

std::size_t CentralQueue::depth() const {
  return tenant_queue_ ? tenant_queue_->depth() : queue_.depth();
}

void CentralQueue::push_new(proto::RequestDescriptor descriptor,
                            sim::TimePoint now) {
  if (tenant_queue_) {
    tenant_queue_->push_new(std::move(descriptor), now);
  } else {
    queue_.push_new(std::move(descriptor), now);
  }
}

void CentralQueue::push_preempted(proto::RequestDescriptor descriptor,
                                  sim::TimePoint now) {
  if (tenant_queue_) {
    tenant_queue_->push_preempted(std::move(descriptor), now);
  } else {
    queue_.push_preempted(std::move(descriptor), now);
  }
}

std::optional<proto::RequestDescriptor> CentralQueue::pop(
    sim::TimePoint now, sim::Duration& queue_delay) {
  if (tenant_queue_) {
    auto popped = tenant_queue_->pop(now);
    if (!popped) return std::nullopt;
    queue_delay = popped->queue_delay;
    if (tenant_admission_) {
      // Feed the owning tenant's gate, not a shared EWMA.
      tenant_admission_->observe(popped->tenant_index, popped->queue_delay);
    }
    return std::move(popped->descriptor);
  }
  // The measured pop equals the plain one while shedding is off, and
  // shedding needs overload control, so it is safe to take always.
  auto descriptor = queue_.pop(now, queue_delay);
  if (descriptor && overload_on_) admission_.observe_queue_delay(queue_delay);
  return descriptor;
}

void CentralQueue::cancel(std::uint64_t request_id) {
  if (tenant_queue_) {
    tenant_queue_->cancel(request_id);
  } else {
    queue_.cancel(request_id);
  }
}

CentralQueue::Verdict CentralQueue::admit(std::uint16_t tenant,
                                          std::size_t extra_depth) {
  Verdict verdict;
  if (!overload_on_) return verdict;
  if (tenant_admission_) {
    const std::size_t slot = tenant_queue_->index_of(tenant);
    verdict.depth = tenant_queue_->depth_of(slot);
    verdict.admitted = tenant_admission_->admit(slot, verdict.depth);
  } else {
    verdict.depth = depth() + extra_depth;
    verdict.admitted = admission_.admit(verdict.depth);
  }
  ++(verdict.admitted ? admitted_ : rejected_);
  return verdict;
}

void CentralQueue::add_to(ServerStats& stats) const {
  stats.queue_max_depth =
      std::max(stats.queue_max_depth, tenant_queue_
                                          ? tenant_queue_->max_depth()
                                          : queue_.stats().max_depth);
  stats.overload.admitted += admitted_;
  stats.overload.rejected += rejected_;
  stats.overload.shed_expired += tenant_queue_ ? tenant_queue_->shed_total()
                                               : queue_.stats().shed_expired;
  stats.cancelled += tenant_queue_ ? tenant_queue_->cancelled_total()
                                   : queue_.stats().cancelled;
  tenant::accumulate(stats.tenants,
                     tenant::assemble_stats(tenant_params_, tenant_queue_.get(),
                                            tenant_admission_.get()));
}

void CentralQueue::add_to(ServerTelemetry& telemetry) const {
  telemetry.queue_depth += depth();
  telemetry.rejected += rejected_;
  telemetry.shed += tenant_queue_ ? tenant_queue_->shed_total()
                                  : queue_.stats().shed_expired;
  if (tenant_queue_) {
    const std::size_t count = tenant_queue_->tenant_count();
    if (telemetry.tenant_depths.size() < count) {
      telemetry.tenant_depths.resize(count);
    }
    for (std::size_t i = 0; i < count; ++i) {
      telemetry.tenant_depths[i] += tenant_queue_->depth_of(i);
    }
  }
}

void nic_ingress(
    sim::Simulator& sim, const IngressStage& stage, const net::Packet& packet,
    CentralQueue& central, std::size_t backlog,
    const std::function<void(std::uint64_t)>& cancel,
    const std::function<void(proto::RequestDescriptor)>& accepted) {
  const auto datagram = net::parse_udp_datagram(packet);
  if (!datagram || datagram->udp.dst_port != stage.port) {
    ++stage.malformed;
    return;
  }
  if (proto::peek_type(datagram->payload) == proto::MessageType::kCancel) {
    if (const auto message = proto::CancelMessage::parse(datagram->payload)) {
      // The losing leg of a ToR-hedged pair (DESIGN §16): mark the id for a
      // lazy drop at dispatch. A mark whose request was already dispatched
      // (or never arrived here) is consumed-or-harmless — ids are unique
      // per run.
      cancel(message->request_id);
    } else {
      ++stage.malformed;
    }
    return;
  }
  const auto request = proto::RequestMessage::parse(datagram->payload);
  if (!request) {
    ++stage.malformed;
    return;
  }
  ++stage.received;
  sim.trace(sim::TraceCategory::kClient, [&] {
    return std::pair{std::string(stage.component),
                     "request " + std::to_string(request->request_id) +
                         " received"};
  });
  // Informed admission (DESIGN §11) before any dispatcher work, answered
  // straight from the NIC. With tenants on (§13) the request is judged by
  // its own tenant's gate and backlog, so a saturating neighbour cannot
  // close the door.
  const auto verdict = central.admit(request->tenant, backlog);
  if (sim.span_enabled()) {
    obs::record_nic_rx(sim, packet.rx_at(), request->request_id,
                       stage.span_lane);
  }
  if (!verdict.admitted) {
    sim.trace(sim::TraceCategory::kClient, [&] {
      return std::pair{std::string(stage.component),
                       "reject " + std::to_string(request->request_id) +
                           " depth " + std::to_string(verdict.depth)};
    });
    if (sim.span_enabled()) {
      obs::begin_span(sim, request->request_id, obs::SpanKind::kResponse,
                      stage.span_lane);
    }
    stage.nic.transmit(make_reject_frame(stage.nic.mac(), stage.nic.ip(),
                                         stage.port, *datagram, *request,
                                         verdict.depth));
    return;
  }
  if (sim.span_enabled()) {
    obs::begin_span(sim, request->request_id, obs::SpanKind::kDispatchQueue,
                    stage.span_lane);
  }
  accepted(make_descriptor(*request, *datagram));
}

}  // namespace nicsched::core
