// The centralized task queue at the heart of Shinjuku-style scheduling.
//
// New requests enter at the tail; preempted requests re-enter and, when
// selected again, "can be assigned to any worker, not necessarily the worker
// that handled [them] first" (§3.4.1). A single global queue is what
// eliminates the load imbalance of per-core RSS queues (§2.2 problem 1).
//
// The selection policy is pluggable — the paper's prototype uses FIFO, but a
// centralized scheduler is exactly where smarter policies become possible
// (§2.2 motivates co-located latency classes; the size-aware literature it
// cites motivates shortest-job-first):
//
//   kFcfs        the paper's FIFO; preempted requests go to the tail.
//   kSjf         shortest-remaining-work first (size-aware: the synthetic
//                request declares its work, as a MICA value size or RPC
//                method id would in practice).
//   kMultiClass  strict priority by request kind (kind 0 highest), FIFO
//                within a class — latency-class isolation for co-located
//                applications.
//   kBvt         Borrowed Virtual Time across classes — what the full
//                Shinjuku system (NSDI '19) runs: each class accrues
//                virtual time as executed-work/weight and the class with
//                the smallest virtual time goes next, giving weighted
//                processor sharing between co-located applications without
//                starving anyone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "proto/messages.h"
#include "sim/id_set.h"
#include "sim/ring.h"
#include "sim/time.h"

namespace nicsched::core {

enum class QueuePolicy {
  kFcfs,
  kSjf,
  kMultiClass,
  kBvt,
};

const char* to_string(QueuePolicy policy);

class TaskQueue {
 public:
  struct Stats {
    std::uint64_t enqueued_new = 0;
    std::uint64_t enqueued_preempted = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t shed_expired = 0;  ///< past-deadline drops before dispatch
    std::uint64_t cancelled = 0;     ///< kCancel drops before dispatch
    std::size_t max_depth = 0;
  };

  explicit TaskQueue(QueuePolicy policy = QueuePolicy::kFcfs)
      : policy_(policy) {}

  QueuePolicy policy() const { return policy_; }

  /// kBvt: weight for a class (default 1.0). Larger weight → more service.
  /// Must be set before requests of that class arrive to take full effect.
  void set_class_weight(std::uint16_t kind, double weight) {
    class_state_[kind].weight = weight;
  }

  /// kBvt: a class's accumulated virtual time (test/diagnostic hook).
  double virtual_time(std::uint16_t kind) const {
    auto it = class_state_.find(kind);
    return it == class_state_.end() ? 0.0 : it->second.virtual_time;
  }

  void push_new(proto::RequestDescriptor descriptor,
                sim::TimePoint now = {}) {
    ++stats_.enqueued_new;
    insert({std::move(descriptor), now});
  }

  void push_preempted(proto::RequestDescriptor descriptor,
                      sim::TimePoint now = {}) {
    ++stats_.enqueued_preempted;
    insert({std::move(descriptor), now});
  }

  /// Removes and returns the next request under the configured policy.
  std::optional<proto::RequestDescriptor> pop();

  /// As `pop()`, but measures the popped request's queueing delay (time
  /// since enqueue, the admission controller's input signal) and — when
  /// shedding is enabled — silently drops entries whose deadline has
  /// already passed, counting them in `stats().shed_expired`.
  std::optional<proto::RequestDescriptor> pop(sim::TimePoint now,
                                              sim::Duration& queue_delay);

  /// Deadline-aware shedding: drop already-expired requests inside pop()
  /// instead of handing them to a worker (overload control, DESIGN §11).
  void set_shed_expired(bool on) { shed_expired_ = on; }

  /// Lazy cancel (DESIGN §16, ToR hedging): marks `request_id` so that the
  /// next pop of that id is silently dropped instead of occupying a worker.
  /// The mark is consumed on match. A mark for an id that is not queued
  /// waits for the id's next push: a preemption requeue or a re-steer of
  /// that request. It stays for the run if the id never returns. Costs a
  /// binary search and a shift of the marks above it; draws nothing.
  void cancel(std::uint64_t request_id) { cancelled_ids_.insert(request_id); }

  bool empty() const { return size_ == 0; }
  std::size_t depth() const { return size_; }
  const Stats& stats() const { return stats_; }

 private:
  /// A queued request plus its enqueue timestamp; the timestamp feeds the
  /// queueing-delay signal and costs nothing when callers never ask for it.
  struct Entry {
    proto::RequestDescriptor descriptor;
    sim::TimePoint enqueued_at;
  };

  void insert(Entry entry);
  std::optional<Entry> pop_entry();
  /// Consumes a pending cancel mark for this entry, if any.
  bool consume_cancel(const Entry& entry) {
    if (cancelled_ids_.empty() ||
        !cancelled_ids_.erase(entry.descriptor.request_id)) {
      return false;
    }
    ++stats_.cancelled;
    return true;
  }
  void note_depth() {
    if (size_ > stats_.max_depth) stats_.max_depth = size_;
  }

  QueuePolicy policy_;
  bool shed_expired_ = false;
  std::size_t size_ = 0;
  Stats stats_;
  sim::IdSet cancelled_ids_;

  /// kFcfs storage.
  sim::Ring<Entry> fifo_;
  /// kSjf storage: ordered by remaining work; equal keys keep insertion
  /// order (std::multimap guarantees it), making the policy deterministic.
  std::multimap<std::uint64_t, Entry> by_work_;
  /// kMultiClass and kBvt storage: one FIFO per kind seen so far (a drained
  /// kind keeps its empty ring).
  std::map<std::uint16_t, sim::Ring<Entry>> by_class_;

  /// kBvt per-class accounting.
  struct BvtClass {
    double weight = 1.0;
    double virtual_time = 0.0;  // microseconds of work / weight
  };
  std::map<std::uint16_t, BvtClass> class_state_;
};

}  // namespace nicsched::core
