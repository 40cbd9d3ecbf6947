// Reliable dispatcher→worker delivery (DESIGN §9), shared by the families
// whose dispatch path can lose or strand an assignment: offload's UDP
// assignment frames and rain's one-sided RDMA writes.
//
// Each dispatched request is tracked until a completion retires it. An
// unacked assignment is resent under the same seq at RTO, RTO·b, RTO·b², ...
// until the retry budget is spent, then abandoned (a late completion
// un-counts that). An ack swaps the resend timer for a completion watchdog.
// `miss_threshold` consecutive timeouts on one worker, or a watchdog firing,
// declare the worker dead and re-steer what it holds in ascending request-id
// order, so replay never depends on hash layout; any later word from the
// worker revives it. The family supplies its transport as the `resend`,
// `requeue` and `kick` hooks, and keeps seq allocation, ack parsing and the
// worker-side dedupe (offload reserves seq 0 for its legacy frame; rain
// stamps one on every run-queue entry). Workers count suppressed duplicates
// in `stats()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/core_status.h"
#include "core/server.h"
#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/arena.h"
#include "sim/simulator.h"

namespace nicsched::core {

class ReliableDispatch {
 public:
  struct Hooks {
    std::function<void(std::size_t worker,
                       const proto::RequestDescriptor& descriptor,
                       std::uint64_t seq)>
        resend;
    std::function<void(proto::RequestDescriptor descriptor)> requeue;
    std::function<void()> kick;
  };

  /// `status` is the dispatcher's placement table: deaths mark workers
  /// unhealthy and free the slots they held. `adaptive_k`, when non-null,
  /// restarts a worker's K from full on death and on revival.
  /// `trace_label` names the dispatcher in kDispatch trace lines.
  ReliableDispatch(sim::Simulator& sim, const ReliabilityParams& params,
                   CoreStatusTable& status,
                   overload::AdaptiveKController* adaptive_k,
                   const char* trace_label, Hooks hooks);

  /// Starts tracking a freshly sent assignment and arms its RTO.
  void track(const proto::RequestDescriptor& descriptor, std::size_t worker,
             std::uint64_t seq);
  /// The worker confirmed receipt of `seq`: stop resending and watch for
  /// the completion instead.
  void ack(std::size_t worker, std::uint64_t seq);
  /// A completion (`completed`) or preemption for `request_id` arrived from
  /// `worker`. Returns true when it resolves a tracked entry, which is then
  /// dropped; false for a request that was abandoned or re-steered off this
  /// worker, whose slot was already freed.
  bool retire(std::size_t worker, std::uint64_t request_id, bool completed);
  /// Any word from `worker`: clears its timeout streak and revives it if it
  /// had been declared dead.
  void note_alive(std::size_t worker);

  ReliabilityStats& stats() { return stats_; }
  const ReliabilityStats& stats() const { return stats_; }

 private:
  struct Inflight {
    proto::RequestDescriptor descriptor;
    std::size_t worker = 0;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 1;
    bool acked = false;
    sim::EventHandle timer;  // retransmit timer, then completion watchdog
  };

  void arm_retransmit(Inflight& entry);
  void on_retransmit_timeout(std::uint64_t request_id, std::uint64_t seq);
  void on_completion_timeout(std::uint64_t request_id, std::uint64_t seq);
  void declare_dead(std::size_t worker);
  void reset_capacity(std::size_t worker);

  sim::Simulator& sim_;
  ReliabilityParams params_;
  CoreStatusTable& status_;
  overload::AdaptiveKController* adaptive_k_;
  const char* trace_label_;
  Hooks hooks_;

  // Per-request nodes churn once per tracked request; the arena's exact-size
  // freelists recycle them so the steady state stays off the global
  // allocator (sim_alloc_test pins this). Declared before the containers it
  // feeds, so they release their nodes while it still exists.
  sim::ArenaResource arena_;
  std::pmr::unordered_map<std::uint64_t, Inflight> inflight_{&arena_};
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> seq_to_request_{
      &arena_};
  /// Requests whose retry budget ran out; a late completion for one of
  /// these decrements `stats_.abandoned` again so conservation stays exact.
  std::pmr::unordered_set<std::uint64_t> abandoned_ids_{&arena_};
  std::vector<std::uint32_t> consecutive_timeouts_;  // per worker
  ReliabilityStats stats_;
};

}  // namespace nicsched::core
