// FaultInjector: turns a FaultSchedule value into simulator events
// against a ClusterFaultSurface — the one injector, for a single server and
// for a rack.
//
// Construction schedules everything up front: a loss/degrade/partition
// window becomes two events (apply at `start`, restore at `end`), a worker
// or host action becomes one. Each event is placed on the simulator whose
// shard owns its injection point (host faults on the host's shard, downlink
// faults on the rack shard); classic per-server kinds go to the addressed
// host's own FaultSurface (host 0 unless the schedule names another). Each
// loss window derives its own RNG seed from the schedule seed and the
// window's index, so retiming one window never reshuffles another's drop
// pattern.
//
// An optional `horizon` (the planned end of the run) drops actions
// scheduled at or past it — they could never fire — with a one-line
// warning, the same inert-input policy the FaultSchedule builders apply
// (DESIGN §16). Worker and host ids past the surface's counts wrap modulo
// (the documented contract) but warn once per injector.
//
// Overlapping windows are refcounted per host and direction so a short
// partition ending inside a longer crash cannot un-silence the crashed
// host. The refcounts live behind a shared_ptr captured by the events, so
// the injector itself may be destroyed before the run finishes.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "fault/fault_schedule.h"
#include "fault/fault_surface.h"
#include "sim/simulator.h"

namespace nicsched::fault {

class FaultInjector {
 public:
  /// Schedules every action in `schedule` across `cluster`'s hosts. Host
  /// indices wrap modulo fault_host_count(). Must be constructed before the
  /// run starts (events are placed on per-shard simulators while the
  /// engine is still single-threaded).
  FaultInjector(ClusterFaultSurface& cluster, FaultSchedule schedule,
                       std::optional<sim::TimePoint> horizon = std::nullopt);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  /// Per-host nesting depths. Each counter is only ever touched from the
  /// shard that owns the matching injection point (freeze/uplink: the
  /// host's shard; downlink: the rack shard), so no synchronization is
  /// needed even under the parallel engine.
  struct State {
    std::vector<int> freeze_depth;
    std::vector<int> uplink_depth;
    std::vector<int> downlink_depth;
  };

  FaultSchedule schedule_;
  std::shared_ptr<State> state_;
};

}  // namespace nicsched::fault
