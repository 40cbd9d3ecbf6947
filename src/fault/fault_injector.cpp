#include "fault/fault_injector.h"

#include <cstdio>
#include <utility>

namespace nicsched::fault {

namespace {

/// SplitMix64-style mix so each loss window gets an independent stream.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// True when an action scheduled at `at` can still fire before `horizon`;
/// otherwise warns (once per injector via `warned`) and the caller drops it.
bool within_horizon(sim::TimePoint at,
                    const std::optional<sim::TimePoint>& horizon,
                    bool& warned) {
  if (!horizon || at < *horizon) return true;
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "nicsched: dropping fault action(s) scheduled past the run "
                 "horizon (they could never fire)\n");
  }
  return false;
}

/// Worker ids wrap modulo the surface's worker count (the documented
/// contract), but an out-of-range id in a hand-written schedule is usually a
/// typo — warn once per injector so it cannot pass silently.
void check_worker_range(std::uint32_t worker, std::uint32_t count,
                        bool& warned) {
  if (warned || count == 0 || worker < count) return;
  warned = true;
  std::fprintf(stderr,
               "nicsched: fault worker id %u out of range for a %u-worker "
               "surface; wrapping modulo\n",
               worker, count);
}

/// Refcounted apply/restore so overlapping windows compose: the fault is
/// applied on the 0→1 transition and lifted on 1→0; unmatched restores
/// (a recover without a crash) are ignored rather than driving the depth
/// negative.
template <typename Apply>
void transition(std::vector<int>& depth, std::uint32_t host, bool on,
                Apply&& apply) {
  if (on) {
    if (++depth[host] == 1) apply(true);
  } else {
    if (depth[host] == 0) return;
    if (--depth[host] == 0) apply(false);
  }
}

}  // namespace

FaultInjector::FaultInjector(ClusterFaultSurface& cluster,
                                           FaultSchedule schedule,
                                           std::optional<sim::TimePoint> horizon)
    : schedule_(std::move(schedule)), state_(std::make_shared<State>()) {
  ClusterFaultSurface* c = &cluster;
  const std::uint32_t hosts = cluster.fault_host_count();
  state_->freeze_depth.assign(hosts, 0);
  state_->uplink_depth.assign(hosts, 0);
  state_->downlink_depth.assign(hosts, 0);
  bool warned_horizon = false;
  bool warned_worker = false;
  bool warned_host = false;

  auto resolve_host = [&](std::uint32_t host) {
    if (!warned_host && hosts > 0 && host >= hosts) {
      warned_host = true;
      std::fprintf(stderr,
                   "nicsched: fault host id %u out of range for a %u-host "
                   "cluster; wrapping modulo\n",
                   host, hosts);
    }
    return hosts == 0 ? 0 : host % hosts;
  };
  auto state = state_;

  auto set_freeze = [c, state](std::uint32_t host, bool on) {
    transition(state->freeze_depth, host, on, [&](bool apply) {
      apply ? c->inject_host_freeze(host) : c->inject_host_thaw(host);
    });
  };
  auto set_uplink = [c, state](std::uint32_t host, bool on) {
    transition(state->uplink_depth, host, on, [&](bool apply) {
      c->inject_uplink_partition(host, apply);
    });
  };
  auto set_downlink = [c, state](std::uint32_t host, bool on) {
    transition(state->downlink_depth, host, on, [&](bool apply) {
      c->inject_downlink_partition(host, apply);
    });
  };

  // Host crash = freeze every core + sever both links; recover is the exact
  // inverse. The freeze and uplink halves run on the host's shard, the
  // downlink half on the rack shard — each scheduled on its owning sim.
  for (const HostAction& action : schedule_.host_actions()) {
    if (!within_horizon(action.at, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(action.host);
    const bool on = action.kind == HostActionKind::kCrash;
    cluster.host_fault_sim(host).at(action.at, [set_freeze, set_uplink, host,
                                                on]() {
      set_freeze(host, on);
      set_uplink(host, on);
    });
    cluster.rack_fault_sim().at(
        action.at, [set_downlink, host, on]() { set_downlink(host, on); });
  }

  for (const PartitionWindow& w : schedule_.partition_windows()) {
    if (!within_horizon(w.start, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(w.host);
    const bool up = w.direction != LinkDirection::kDownlink;
    const bool down = w.direction != LinkDirection::kUplink;
    if (up) {
      sim::Simulator& host_sim = cluster.host_fault_sim(host);
      host_sim.at(w.start, [set_uplink, host]() { set_uplink(host, true); });
      host_sim.at(w.end, [set_uplink, host]() { set_uplink(host, false); });
    }
    if (down) {
      sim::Simulator& rack_sim = cluster.rack_fault_sim();
      rack_sim.at(w.start,
                  [set_downlink, host]() { set_downlink(host, true); });
      rack_sim.at(w.end,
                  [set_downlink, host]() { set_downlink(host, false); });
    }
  }

  // The classic per-server fault kinds route to the addressed host's own
  // surface and shard; the seed salt walks windows in schedule order so the
  // same schedule drops the same frames regardless of host placement.
  std::uint64_t salt = 0;
  for (const LossWindow& w : schedule_.ingress_loss_windows()) {
    const std::uint64_t seed = mix_seed(schedule_.seed(), salt++);
    if (!within_horizon(w.start, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(w.host);
    FaultSurface* s = &cluster.host_surface(host);
    sim::Simulator& host_sim = cluster.host_fault_sim(host);
    const double p = w.probability;
    host_sim.at(w.start, [s, p, seed]() { s->inject_ingress_loss(p, seed); });
    host_sim.at(w.end, [s]() { s->inject_ingress_loss(0.0, 0); });
  }
  for (const LossWindow& w : schedule_.dispatch_loss_windows()) {
    const std::uint64_t seed = mix_seed(schedule_.seed(), salt++);
    if (!within_horizon(w.start, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(w.host);
    FaultSurface* s = &cluster.host_surface(host);
    sim::Simulator& host_sim = cluster.host_fault_sim(host);
    const double p = w.probability;
    host_sim.at(w.start, [s, p, seed]() { s->inject_dispatch_loss(p, seed); });
    host_sim.at(w.end, [s]() { s->inject_dispatch_loss(0.0, 0); });
  }
  for (const DegradeWindow& w : schedule_.degrade_windows()) {
    if (!within_horizon(w.start, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(w.host);
    FaultSurface* s = &cluster.host_surface(host);
    sim::Simulator& host_sim = cluster.host_fault_sim(host);
    const double factor = w.factor;
    host_sim.at(w.start, [s, factor]() { s->inject_ingress_degrade(factor); });
    host_sim.at(w.end, [s]() { s->inject_ingress_degrade(1.0); });
  }
  for (const WorkerAction& action : schedule_.worker_actions()) {
    if (!within_horizon(action.at, horizon, warned_horizon)) continue;
    const std::uint32_t host = resolve_host(action.host);
    FaultSurface* s = &cluster.host_surface(host);
    check_worker_range(action.worker, s->fault_worker_count(), warned_worker);
    sim::Simulator& host_sim = cluster.host_fault_sim(host);
    const std::uint32_t worker = action.worker;
    switch (action.kind) {
      case WorkerActionKind::kStall: {
        const sim::Duration duration = action.duration;
        host_sim.at(action.at, [s, worker, duration]() {
          if (s->fault_worker_count() == 0) return;
          s->inject_worker_stall(worker % s->fault_worker_count(), duration);
        });
        break;
      }
      case WorkerActionKind::kCrash:
        host_sim.at(action.at, [s, worker]() {
          if (s->fault_worker_count() == 0) return;
          s->inject_worker_crash(worker % s->fault_worker_count());
        });
        break;
      case WorkerActionKind::kResume:
        host_sim.at(action.at, [s, worker]() {
          if (s->fault_worker_count() == 0) return;
          s->inject_worker_resume(worker % s->fault_worker_count());
        });
        break;
    }
  }
}

}  // namespace nicsched::fault
