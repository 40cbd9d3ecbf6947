// The one place a host specification becomes a concrete server system.
// ClusterBuilder, benches, examples, and the testbed all construct servers
// through make_host_server so per-system Config mapping (and modelling
// decisions like RPCValet's 50 ns feedback latency) is not copy-pasted at
// every call site.
#pragma once

#include <memory>

#include "core/cluster.h"
#include "core/server.h"
#include "net/ethernet_switch.h"
#include "sim/simulator.h"

namespace nicsched::core {

/// Builds the server system described by `spec` attached to `network`.
/// Throws std::invalid_argument on an unknown system kind.
std::unique_ptr<Server> make_host_server(const HostSpec& spec,
                                         sim::Simulator& sim,
                                         net::EthernetSwitch& network);

}  // namespace nicsched::core
