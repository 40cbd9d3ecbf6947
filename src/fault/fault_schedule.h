// FaultSchedule: a deterministic, sim-clock-driven script of faults.
//
// A schedule is a plain value — timed loss windows, link-degradation
// windows, worker stall/crash/resume actions, and (since the rack fault
// domains of DESIGN §16) host-scoped actions: host crash/recover,
// uplink/downlink partitions, and blackhole windows — built either
// explicitly (tests scripting one precise failure), pseudo-randomly from a
// seed (`randomized` and `make_chaos_schedule`, the conservation/replay and
// chaos tiers' fuzzing substrates), or from NICSCHED_FAULT_* environment
// knobs (`from_env`, for benches). The FaultInjector turns the value into
// simulator events; the schedule itself holds no simulator state, so the
// same value can drive any number of runs and always produces the same
// faults.
//
// Builders reject silently-inert inputs (zero-length windows, non-positive
// probabilities, factors that would not degrade): the window is dropped with
// a one-line stderr warning, mirroring the NICSCHED_TENANTS malformed-input
// policy, instead of riding along as a no-op that makes a schedule look
// non-empty.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.h"

namespace nicsched::fault {

/// Frame loss at `probability` over [start, end); the window close restores
/// exact no-loss behaviour. `host` picks the fault domain in rack
/// topologies (0 = the classic single-host target).
struct LossWindow {
  sim::TimePoint start;
  sim::TimePoint end;
  double probability = 0.0;
  std::uint32_t host = 0;
};

/// Serialization slowed by `factor` over [start, end).
struct DegradeWindow {
  sim::TimePoint start;
  sim::TimePoint end;
  double factor = 1.0;
  std::uint32_t host = 0;
};

enum class WorkerActionKind : std::uint8_t {
  kStall,   // timed pause, auto-resumes after `duration`
  kCrash,   // open-ended, only a later kResume revives
  kResume,  // ends any stall or crash
};

struct WorkerAction {
  sim::TimePoint at;
  std::uint32_t worker = 0;  // taken modulo the surface's worker count
  WorkerActionKind kind = WorkerActionKind::kStall;
  sim::Duration duration;  // kStall only
  std::uint32_t host = 0;
};

/// Host fault domain actions (DESIGN §16): a crash freezes every worker core
/// on the host and partitions both rack links (the host falls silent, state
/// intact — the frozen-incarnation model); recover thaws the cores and
/// restores the links.
enum class HostActionKind : std::uint8_t {
  kCrash,
  kRecover,
};

struct HostAction {
  sim::TimePoint at;
  std::uint32_t host = 0;
  HostActionKind kind = HostActionKind::kCrash;
};

/// Which rack link(s) a partition window severs. kBoth is the blackhole
/// window: the host keeps running but nothing gets in or out.
enum class LinkDirection : std::uint8_t {
  kUplink,    // host → ToR (responses/feedback vanish)
  kDownlink,  // ToR → host (steered requests vanish)
  kBoth,
};

struct PartitionWindow {
  sim::TimePoint start;
  sim::TimePoint end;
  std::uint32_t host = 0;
  LinkDirection direction = LinkDirection::kBoth;
};

class FaultSchedule {
 public:
  /// Base seed for the per-window loss RNGs (mixed with a window index, so
  /// two windows never share a stream).
  FaultSchedule& with_seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }

  FaultSchedule& ingress_loss(sim::TimePoint start, sim::TimePoint end,
                              double probability) {
    return ingress_loss_on(0, start, end, probability);
  }
  FaultSchedule& ingress_loss_on(std::uint32_t host, sim::TimePoint start,
                                 sim::TimePoint end, double probability);

  FaultSchedule& dispatch_loss(sim::TimePoint start, sim::TimePoint end,
                               double probability) {
    return dispatch_loss_on(0, start, end, probability);
  }
  FaultSchedule& dispatch_loss_on(std::uint32_t host, sim::TimePoint start,
                                  sim::TimePoint end, double probability);

  FaultSchedule& degrade_ingress(sim::TimePoint start, sim::TimePoint end,
                                 double factor) {
    return degrade_ingress_on(0, start, end, factor);
  }
  FaultSchedule& degrade_ingress_on(std::uint32_t host, sim::TimePoint start,
                                    sim::TimePoint end, double factor);

  FaultSchedule& stall_worker(sim::TimePoint at, std::uint32_t worker,
                              sim::Duration duration) {
    return stall_worker_on(0, at, worker, duration);
  }
  FaultSchedule& stall_worker_on(std::uint32_t host, sim::TimePoint at,
                                 std::uint32_t worker, sim::Duration duration);

  FaultSchedule& crash_worker(sim::TimePoint at, std::uint32_t worker) {
    return crash_worker_on(0, at, worker);
  }
  FaultSchedule& crash_worker_on(std::uint32_t host, sim::TimePoint at,
                                 std::uint32_t worker) {
    workers_.push_back(
        {at, worker, WorkerActionKind::kCrash, sim::Duration::zero(), host});
    return *this;
  }

  FaultSchedule& resume_worker(sim::TimePoint at, std::uint32_t worker) {
    return resume_worker_on(0, at, worker);
  }
  FaultSchedule& resume_worker_on(std::uint32_t host, sim::TimePoint at,
                                  std::uint32_t worker) {
    workers_.push_back(
        {at, worker, WorkerActionKind::kResume, sim::Duration::zero(), host});
    return *this;
  }

  // ---- host fault domains (DESIGN §16) ------------------------------------

  FaultSchedule& crash_host(sim::TimePoint at, std::uint32_t host) {
    host_actions_.push_back({at, host, HostActionKind::kCrash});
    return *this;
  }
  FaultSchedule& recover_host(sim::TimePoint at, std::uint32_t host) {
    host_actions_.push_back({at, host, HostActionKind::kRecover});
    return *this;
  }
  FaultSchedule& partition_uplink(sim::TimePoint start, sim::TimePoint end,
                                  std::uint32_t host) {
    return partition(start, end, host, LinkDirection::kUplink);
  }
  FaultSchedule& partition_downlink(sim::TimePoint start, sim::TimePoint end,
                                    std::uint32_t host) {
    return partition(start, end, host, LinkDirection::kDownlink);
  }
  /// Blackhole window: both links severed for [start, end); the host keeps
  /// executing, so late responses surface as duplicates after the window.
  FaultSchedule& blackhole_host(sim::TimePoint start, sim::TimePoint end,
                                std::uint32_t host) {
    return partition(start, end, host, LinkDirection::kBoth);
  }
  FaultSchedule& partition(sim::TimePoint start, sim::TimePoint end,
                           std::uint32_t host, LinkDirection direction);

  std::uint64_t seed() const { return seed_; }
  const std::vector<LossWindow>& ingress_loss_windows() const {
    return ingress_loss_;
  }
  const std::vector<LossWindow>& dispatch_loss_windows() const {
    return dispatch_loss_;
  }
  const std::vector<DegradeWindow>& degrade_windows() const {
    return degrade_ingress_;
  }
  const std::vector<WorkerAction>& worker_actions() const { return workers_; }
  const std::vector<HostAction>& host_actions() const { return host_actions_; }
  const std::vector<PartitionWindow>& partition_windows() const {
    return partitions_;
  }

  bool empty() const {
    return ingress_loss_.empty() && dispatch_loss_.empty() &&
           degrade_ingress_.empty() && workers_.empty() &&
           host_actions_.empty() && partitions_.empty();
  }

  /// True when any entry targets a host other than 0 or uses the host-level
  /// fault kinds.
  bool host_scoped() const;

  /// A deterministic pseudo-random schedule over [start, end): a few ingress
  /// loss windows, an optional degrade window, worker stalls (always timed,
  /// so every run quiesces), and — when `with_dispatch_loss` — loss windows
  /// on the dispatcher↔worker path. Same arguments ⇒ same schedule.
  static FaultSchedule randomized(std::uint64_t seed,
                                  std::uint32_t worker_count,
                                  sim::TimePoint start, sim::TimePoint end,
                                  bool with_dispatch_loss);

  /// Reads the NICSCHED_FAULT_* knobs (see README); nullopt when none set.
  static std::optional<FaultSchedule> from_env();

 private:
  std::uint64_t seed_ = 1;
  std::vector<LossWindow> ingress_loss_;
  std::vector<LossWindow> dispatch_loss_;
  std::vector<DegradeWindow> degrade_ingress_;
  std::vector<WorkerAction> workers_;
  std::vector<HostAction> host_actions_;
  std::vector<PartitionWindow> partitions_;
};

}  // namespace nicsched::fault
