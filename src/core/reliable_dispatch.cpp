#include "core/reliable_dispatch.h"

#include <algorithm>
#include <string>
#include <utility>

namespace nicsched::core {

ReliableDispatch::ReliableDispatch(sim::Simulator& sim,
                                   const ReliabilityParams& params,
                                   CoreStatusTable& status,
                                   overload::AdaptiveKController* adaptive_k,
                                   const char* trace_label, Hooks hooks)
    : sim_(sim),
      params_(params),
      status_(status),
      adaptive_k_(adaptive_k),
      trace_label_(trace_label),
      hooks_(std::move(hooks)),
      consecutive_timeouts_(status.worker_count(), 0) {}

void ReliableDispatch::track(const proto::RequestDescriptor& descriptor,
                             std::size_t worker, std::uint64_t seq) {
  // A request_id should never be dispatched while still tracked; if it ever
  // is, retire the stale entry's timer so no orphan event fires.
  auto stale = inflight_.find(descriptor.request_id);
  if (stale != inflight_.end()) {
    stale->second.timer.cancel();
    seq_to_request_.erase(stale->second.seq);
    inflight_.erase(stale);
  }
  Inflight entry;
  entry.descriptor = descriptor;
  entry.worker = worker;
  entry.seq = seq;
  seq_to_request_[seq] = descriptor.request_id;
  auto [it, inserted] =
      inflight_.emplace(descriptor.request_id, std::move(entry));
  arm_retransmit(it->second);
}

void ReliableDispatch::arm_retransmit(Inflight& entry) {
  sim::Duration rto = params_.rto;
  for (std::uint32_t i = 1; i < entry.attempts; ++i) {
    rto = rto * params_.backoff;
  }
  entry.timer.cancel();
  entry.timer =
      sim_.after(rto, [this, id = entry.descriptor.request_id,
                       seq = entry.seq]() { on_retransmit_timeout(id, seq); });
}

void ReliableDispatch::on_retransmit_timeout(std::uint64_t request_id,
                                             std::uint64_t seq) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq || it->second.acked) {
    return;  // retired or re-dispatched since the timer was armed
  }
  Inflight& entry = it->second;
  const std::size_t worker = entry.worker;
  ++stats_.timeouts;
  ++consecutive_timeouts_[worker];
  if (consecutive_timeouts_[worker] >= params_.miss_threshold) {
    // The worker has missed too many acks in a row: liveness verdict, which
    // re-steers every in-flight request it holds (including this one).
    declare_dead(worker);
    return;
  }
  if (entry.attempts >= params_.retry_budget) {
    // Budget exhausted against a worker still believed alive: abandon. The
    // slot is freed; a late completion will un-count the abandonment.
    seq_to_request_.erase(entry.seq);
    inflight_.erase(it);
    abandoned_ids_.insert(request_id);
    ++stats_.abandoned;
    sim_.trace(sim::TraceCategory::kDispatch, [&] {
      return std::pair{std::string(trace_label_),
                       "abandon " + std::to_string(request_id)};
    });
    status_.note_retired(worker, sim_.now());
    hooks_.kick();
    return;
  }
  ++entry.attempts;
  ++stats_.retransmits;
  // Same seq: if the first copy was merely slow, the worker's dedupe
  // suppresses the duplicate.
  hooks_.resend(worker, entry.descriptor, entry.seq);
  arm_retransmit(entry);
}

void ReliableDispatch::on_completion_timeout(std::uint64_t request_id,
                                             std::uint64_t seq) {
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq || !it->second.acked) {
    return;
  }
  // The worker accepted the assignment but never reported back: it died (or
  // stalled far beyond the service-time budget) after the ack.
  ++stats_.timeouts;
  declare_dead(it->second.worker);
}

void ReliableDispatch::ack(std::size_t worker, std::uint64_t seq) {
  auto sit = seq_to_request_.find(seq);
  if (sit == seq_to_request_.end()) {
    ++stats_.duplicates;  // ack for an entry already retired/abandoned
    return;
  }
  const std::uint64_t request_id = sit->second;
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.seq != seq ||
      it->second.worker != worker) {
    return;  // stale ack from a worker the request was re-steered off
  }
  Inflight& entry = it->second;
  if (entry.acked) {
    ++stats_.duplicates;
    return;
  }
  entry.acked = true;
  // Acceptance is not completion: swap the retransmit timer for a watchdog
  // that catches a worker dying *after* it acked.
  entry.timer.cancel();
  entry.timer = sim_.after(params_.completion_timeout,
                           [this, request_id, seq]() {
                             on_completion_timeout(request_id, seq);
                           });
}

bool ReliableDispatch::retire(std::size_t worker, std::uint64_t request_id,
                              bool completed) {
  if (abandoned_ids_.contains(request_id)) {
    if (completed) {
      // The "abandoned" request ran to completion after all (its assignment
      // arrived but every ack was lost); the client did get a response.
      abandoned_ids_.erase(request_id);
      --stats_.abandoned;
    }
    // A preemption for an abandoned request is dropped: the request stays
    // accounted as abandoned and is never resumed.
    return false;
  }
  auto it = inflight_.find(request_id);
  if (it == inflight_.end() || it->second.worker != worker) {
    // Stale report from a worker the request was re-steered off; the dead
    // worker's slot was already freed when it was declared dead.
    ++stats_.duplicates;
    return false;
  }
  it->second.timer.cancel();
  seq_to_request_.erase(it->second.seq);
  inflight_.erase(it);
  return true;
}

void ReliableDispatch::declare_dead(std::size_t worker) {
  if (!status_.entry(worker).healthy) return;
  status_.set_healthy(worker, false);
  ++stats_.worker_deaths;
  consecutive_timeouts_[worker] = 0;
  // Forget the dead worker's sojourn history; it restarts from full K so
  // the re-steer path and the governor compose cleanly.
  reset_capacity(worker);
  sim_.trace(sim::TraceCategory::kDispatch, [&] {
    return std::pair{std::string(trace_label_),
                     "worker" + std::to_string(worker) + " declared dead"};
  });
  // Re-steer everything the dead worker holds back through the centralized
  // queue; sorted so replay order never depends on hash-table layout.
  std::vector<std::uint64_t> ids;
  for (const auto& [id, entry] : inflight_) {
    if (entry.worker == worker) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    auto it = inflight_.find(id);
    Inflight& entry = it->second;
    entry.timer.cancel();
    seq_to_request_.erase(entry.seq);
    proto::RequestDescriptor descriptor = std::move(entry.descriptor);
    inflight_.erase(it);
    status_.note_retired(worker, sim_.now());
    ++stats_.redispatched;
    hooks_.requeue(std::move(descriptor));
  }
  hooks_.kick();
}

void ReliableDispatch::note_alive(std::size_t worker) {
  consecutive_timeouts_[worker] = 0;
  if (!status_.entry(worker).healthy) {
    status_.set_healthy(worker, true);
    ++stats_.revivals;
    reset_capacity(worker);
    hooks_.kick();
  }
}

void ReliableDispatch::reset_capacity(std::size_t worker) {
  if (adaptive_k_ == nullptr) return;
  status_.set_capacity(worker,
                       static_cast<std::uint32_t>(adaptive_k_->reset(worker)));
}

}  // namespace nicsched::core
