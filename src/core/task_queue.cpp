#include "core/task_queue.h"

#include <utility>

namespace nicsched::core {

const char* to_string(QueuePolicy policy) {
  switch (policy) {
    case QueuePolicy::kFcfs: return "fcfs";
    case QueuePolicy::kSjf: return "sjf";
    case QueuePolicy::kMultiClass: return "multi-class";
    case QueuePolicy::kBvt: return "bvt";
  }
  return "unknown";
}

void TaskQueue::insert(Entry entry) {
  switch (policy_) {
    case QueuePolicy::kFcfs:
      fifo_.push_back(std::move(entry));
      break;
    case QueuePolicy::kSjf:
      by_work_.emplace(entry.descriptor.remaining_ps, std::move(entry));
      break;
    case QueuePolicy::kMultiClass:
      by_class_[entry.descriptor.kind].push_back(std::move(entry));
      break;
    case QueuePolicy::kBvt: {
      auto& queue = by_class_[entry.descriptor.kind];
      if (queue.empty()) {
        // A class returning from idle must not monopolize with its stale
        // (low) virtual time: catch it up to the least-advanced *backlogged*
        // class, the standard BVT/fair-queueing re-entry rule.
        double min_active = -1.0;
        for (const auto& [kind, pending] : by_class_) {
          if (pending.empty() || kind == entry.descriptor.kind) continue;
          const double vt = class_state_[kind].virtual_time;
          if (min_active < 0.0 || vt < min_active) min_active = vt;
        }
        BvtClass& state = class_state_[entry.descriptor.kind];
        if (min_active > state.virtual_time) state.virtual_time = min_active;
      }
      queue.push_back(std::move(entry));
      break;
    }
  }
  ++size_;
  note_depth();
}

std::optional<TaskQueue::Entry> TaskQueue::pop_entry() {
  if (size_ == 0) return std::nullopt;
  Entry entry;
  switch (policy_) {
    case QueuePolicy::kFcfs:
      entry = fifo_.take_front();
      break;
    case QueuePolicy::kSjf: {
      auto it = by_work_.begin();
      entry = std::move(it->second);
      by_work_.erase(it);
      break;
    }
    case QueuePolicy::kMultiClass: {
      // Drained classes keep their (empty) ring for the next burst.
      auto it = by_class_.begin();
      while (it->second.empty()) ++it;
      entry = it->second.take_front();
      break;
    }
    case QueuePolicy::kBvt: {
      // Serve the backlogged class with the smallest virtual time; ties go
      // to the lowest kind (map order), keeping selection deterministic.
      auto best = by_class_.end();
      double best_vt = 0.0;
      for (auto it = by_class_.begin(); it != by_class_.end(); ++it) {
        if (it->second.empty()) continue;
        const double vt = class_state_[it->first].virtual_time;
        if (best == by_class_.end() || vt < best_vt) {
          best = it;
          best_vt = vt;
        }
      }
      entry = best->second.take_front();
      // Charge the work about to run (possibly a preemption slice's worth
      // less on re-entry) against the class, scaled by its weight.
      BvtClass& state = class_state_[best->first];
      state.virtual_time +=
          static_cast<double>(entry.descriptor.remaining_ps) / 1e6 /
          state.weight;
      break;
    }
  }
  --size_;
  return entry;
}

std::optional<proto::RequestDescriptor> TaskQueue::pop() {
  while (auto entry = pop_entry()) {
    if (consume_cancel(*entry)) continue;  // cancelled in queue: skip it
    ++stats_.dequeued;
    return std::move(entry->descriptor);
  }
  return std::nullopt;
}

std::optional<proto::RequestDescriptor> TaskQueue::pop(
    sim::TimePoint now, sim::Duration& queue_delay) {
  while (auto entry = pop_entry()) {
    if (consume_cancel(*entry)) continue;  // cancelled in queue: skip it
    if (shed_expired_ && entry->descriptor.deadline_ps != 0 &&
        now.to_picos() >= static_cast<std::int64_t>(
                              entry->descriptor.deadline_ps)) {
      ++stats_.shed_expired;
      continue;  // expired in queue: shed instead of wasting a worker
    }
    ++stats_.dequeued;
    queue_delay = now - entry->enqueued_at;
    return std::move(entry->descriptor);
  }
  return std::nullopt;
}

}  // namespace nicsched::core
