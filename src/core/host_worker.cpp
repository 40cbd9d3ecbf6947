#include "core/host_worker.h"

#include <utility>

#include "obs/span.h"

namespace nicsched::core {

HostWorker::HostWorker(sim::Simulator& sim, const ModelParams& params,
                       Config config)
    : sim_(sim),
      params_(params),
      config_(std::move(config)),
      core_(sim, hw::CpuCore::Config{config_.name, params.host_frequency}),
      interrupt_line_(sim, core_,
                      hw::InterruptLine::Config{config_.interrupt_latency,
                                                params.timer_receive_cycles}) {}

void HostWorker::interrupt() {
  interrupt_line_.send(
      [this](sim::Duration remaining) { on_preempted(remaining); });
}

WorkerCounters HostWorker::counters() const {
  return WorkerCounters{responses_sent_, preemptions_,
                        interrupt_line_.spurious_count(), ddio_,
                        core_.stats().busy};
}

void HostWorker::start_next() {
  if (!fetch(current_)) {
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
  sim::Duration prologue =
      config_.start_cost +
      hw::payload_touch_cost(config_.placement, params_.cache_costs,
                             queued_behind(), ddio_);
  if (current_.preempt_count > 0) prologue += params_.context_restore_cost;
  core_.run(prologue, [this]() { begin_service(); });
}

void HostWorker::begin_service() {
  sim_.trace(sim::TraceCategory::kWorker, [&] {
    return std::pair{"worker" + std::to_string(config_.id),
                     "start " + std::to_string(current_.request_id)};
  });
  if (sim_.span_enabled()) {
    obs::end_span(sim_, current_.request_id, obs::SpanKind::kDispatch,
                  config_.span_lane);
    obs::begin_span(sim_, current_.request_id, obs::SpanKind::kService,
                    config_.span_lane);
  }
  notify(Note::kStarted, current_);
  core_.run_preemptible(
      sim::Duration::picos(static_cast<std::int64_t>(current_.remaining_ps)),
      [this]() { on_complete(); });
}

void HostWorker::on_complete() {
  sim_.trace(sim::TraceCategory::kWorker, [&] {
    return std::pair{"worker" + std::to_string(config_.id),
                     "complete " + std::to_string(current_.request_id)};
  });
  if (sim_.span_enabled()) {
    obs::end_span(sim_, current_.request_id, obs::SpanKind::kService,
                  config_.span_lane);
    obs::begin_span(sim_, current_.request_id, obs::SpanKind::kResponse,
                    config_.span_lane);
  }
  core_.run(params_.response_build_cost + config_.note_cost,
            [this]() { respond(); });
}

void HostWorker::respond() {
  net::DatagramAddress address;
  address.src_mac = config_.reply_via->mac();
  address.dst_mac = current_.client_mac;
  address.src_ip = config_.reply_via->ip();
  address.dst_ip = current_.client_ip;
  address.src_port = config_.reply_port;
  address.dst_port = current_.client_port;
  auto& scratch = proto::serialization_scratch();
  auto response = make_response(current_);
  if (config_.load_feedback) {
    response.has_sojourn = true;
    response.sojourn_ps =
        static_cast<std::uint64_t>(current_sojourn_.to_picos());
  }
  response.serialize_into(scratch);
  config_.reply_via->transmit(net::make_udp_datagram(address, scratch));
  ++responses_sent_;
  notify(Note::kCompleted, current_);
  start_next();
}

void HostWorker::on_preempted(sim::Duration remaining) {
  ++preemptions_;
  if (sim_.span_enabled()) {
    obs::end_span(sim_, current_.request_id, obs::SpanKind::kService,
                  config_.span_lane);
    obs::begin_span(sim_, current_.request_id, obs::SpanKind::kRequeue,
                    config_.span_lane);
  }
  current_.remaining_ps = static_cast<std::uint64_t>(remaining.to_picos());
  current_.preempt_count =
      static_cast<std::uint16_t>(current_.preempt_count + 1);
  core_.run(params_.context_save_cost + config_.note_cost, [this]() {
    notify(Note::kPreempted, current_);
    start_next();
  });
}

}  // namespace nicsched::core
