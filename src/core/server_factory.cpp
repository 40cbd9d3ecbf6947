#include "core/server_factory.h"

#include <stdexcept>

#include "core/distributed_server.h"
#include "core/nic_server.h"
#include "core/offload_server.h"
#include "core/shinjuku_server.h"

namespace nicsched::core {

std::unique_ptr<Server> make_host_server(const HostSpec& spec,
                                         sim::Simulator& sim,
                                         net::EthernetSwitch& network) {
  switch (spec.system) {
    case SystemKind::kShinjuku: {
      ShinjukuServer::Config server;
      server.worker_count = spec.worker_count;
      server.dispatcher_count = spec.dispatcher_count;
      server.queue_policy = spec.queue_policy;
      server.preemption_enabled = spec.preemption_enabled;
      server.time_slice = spec.time_slice;
      server.reliability = spec.reliability;
      server.overload = spec.overload;
      server.load_feedback = spec.load_feedback;
      server.tenant = spec.tenant;
      return std::make_unique<ShinjukuServer>(sim, network, spec.params,
                                              server);
    }
    case SystemKind::kShinjukuOffload: {
      ShinjukuOffloadServer::Config server;
      server.worker_count = spec.worker_count;
      server.outstanding_per_worker = spec.outstanding_per_worker;
      server.preemption_enabled = spec.preemption_enabled;
      server.time_slice = spec.time_slice;
      server.timer_costs = spec.timer_costs;
      server.queue_policy = spec.queue_policy;
      server.sender_cores = spec.sender_cores;
      server.tx_batch_frames = spec.tx_batch_frames;
      server.tx_batch_timeout = spec.tx_batch_timeout;
      server.reliability = spec.reliability;
      server.overload = spec.overload;
      server.load_feedback = spec.load_feedback;
      server.tenant = spec.tenant;
      if (spec.placement) server.placement = *spec.placement;
      return std::make_unique<ShinjukuOffloadServer>(sim, network, spec.params,
                                                     server);
    }
    case SystemKind::kRss:
    case SystemKind::kFlowDirector:
    case SystemKind::kWorkStealing:
    case SystemKind::kElasticRss: {
      DistributedServer::Config server;
      server.worker_count = spec.worker_count;
      server.policy = spec.system == SystemKind::kRss
                          ? DistributedServer::Policy::kRss
                      : spec.system == SystemKind::kFlowDirector
                          ? DistributedServer::Policy::kFlowDirector
                      : spec.system == SystemKind::kWorkStealing
                          ? DistributedServer::Policy::kWorkStealing
                          : DistributedServer::Policy::kElasticRss;
      server.overload = spec.overload;
      server.load_feedback = spec.load_feedback;
      server.tenant = spec.tenant;
      if (spec.placement) server.placement = *spec.placement;
      return std::make_unique<DistributedServer>(sim, network, spec.params,
                                                 server);
    }
    case SystemKind::kIdealNic:
    case SystemKind::kRain:
    case SystemKind::kRpcValet: {
      NicSchedServer::Config server;
      server.worker_count = spec.worker_count;
      server.outstanding_per_worker = spec.outstanding_per_worker;
      server.preemption_enabled = spec.preemption_enabled;
      server.time_slice = spec.time_slice;
      server.queue_policy = spec.queue_policy;
      server.overload = spec.overload;
      server.load_feedback = spec.load_feedback;
      server.tenant = spec.tenant;
      server.feedback_staleness = spec.feedback_staleness;
      if (spec.placement) server.placement = *spec.placement;
      ModelParams params = spec.params;
      if (spec.system == SystemKind::kRain) {
        server.reliability = spec.reliability;
      } else {
        // The coherent CXL path: writes cannot be lost and the status table
        // stays near-fresh, so neither reliable dispatch nor adaptive K has
        // anything to add.
        server.transport = NicSchedServer::Transport::kCxl;
        server.overload.adaptive_k_enabled = false;
      }
      if (spec.system == SystemKind::kRpcValet) {
        // NI-on-chip: feedback and assignment latencies collapse to tens of
        // nanoseconds and the queue is consulted per request — but requests
        // run to completion.
        server.outstanding_per_worker = 1;
        server.preemption_enabled = false;
        params.cxl_one_way_latency = sim::Duration::nanos(50);
      }
      return std::make_unique<NicSchedServer>(sim, network, params, server);
    }
  }
  throw std::invalid_argument("make_host_server: unknown system kind");
}

}  // namespace nicsched::core
