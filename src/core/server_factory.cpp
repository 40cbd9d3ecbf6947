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
    case SystemKind::kShinjuku:
      return std::make_unique<ShinjukuServer>(sim, network, spec);
    case SystemKind::kShinjukuOffload:
      return std::make_unique<ShinjukuOffloadServer>(sim, network, spec);
    case SystemKind::kRss:
    case SystemKind::kFlowDirector:
    case SystemKind::kWorkStealing:
    case SystemKind::kElasticRss:
      return std::make_unique<DistributedServer>(sim, network, spec);
    case SystemKind::kIdealNic:
    case SystemKind::kRain:
    case SystemKind::kRpcValet:
      return std::make_unique<NicSchedServer>(sim, network, spec);
  }
  throw std::invalid_argument("make_host_server: unknown system kind");
}

}  // namespace nicsched::core
