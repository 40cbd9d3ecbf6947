// The one place a host specification becomes a concrete server system:
// picks the family for `spec.system`. Each family reads its own knobs (and
// derives its kind-specific values) from the spec.
#pragma once

#include <memory>

#include "core/host_spec.h"
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
