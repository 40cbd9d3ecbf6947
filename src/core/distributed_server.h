// The NIC-distributed, run-to-completion baselines of §2.1/§2.2 in one
// configurable server:
//
//   kRss          IX-style: the NIC Toeplitz-hashes each flow's five-tuple
//                 to a per-core ring; each core processes its ring to
//                 completion. No preemption, no balancing — the paper's
//                 "schedule quickly and cheaply at the NIC, without
//                 knowledge about idle cores".
//   kFlowDirector MICA-style: clients encode the (uniformly hashed) key
//                 partition in the destination port and the NIC's exact-
//                 match rules steer each partition to its owning core.
//   kWorkStealing ZygOS-style: RSS placement plus idle cores stealing
//                 packets from the deepest sibling ring, paying a
//                 cross-core steal cost per packet.
//   kElasticRss   eRSS-style (§5.1): RSS whose indirection table a NIC
//                 control loop rebalances on a microsecond cadence using
//                 per-core queue-depth feedback — load-aware placement, but
//                 the scheduling policy itself stays run-to-completion.
//
// All three run every request to completion on the receiving core, which is
// exactly why they collapse under high-dispersion workloads (§2.2 problem 2)
// — the property the baseline benches demonstrate.
#pragma once

#include <memory>
#include <vector>

#include "core/host_spec.h"
#include "core/server.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class DistributedServer final : public FaultableServer {
 public:
  /// `spec.system` picks the steering policy: kRss, kFlowDirector,
  /// kWorkStealing, or kElasticRss; any other kind throws.
  DistributedServer(sim::Simulator& sim, net::EthernetSwitch& network,
                    const HostSpec& spec);
  ~DistributedServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::string name() const override { return to_string(spec_.system); }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  /// For kFlowDirector clients: partitions == worker_count, encoded as
  /// kRequestPort + partition.
  std::uint16_t partition_count() const {
    return flow_director() ? static_cast<std::uint16_t>(spec_.worker_count)
                           : 0;
  }

  /// Whether a datagram addressed to `dst_port` is a request for this
  /// server (flow-director mode listens on one port per partition).
  bool accepts_port(std::uint16_t dst_port) const {
    if (dst_port == kRequestPort) return true;
    return flow_director() && dst_port > kRequestPort &&
           dst_port < kRequestPort + spec_.worker_count;
  }

  /// kElasticRss: indirection entries moved so far.
  std::uint64_t rebalances() const { return rebalances_; }

 private:
  class Worker;

  bool flow_director() const {
    return spec_.system == SystemKind::kFlowDirector;
  }
  void rebalance_tick();
  // Fault surface: dispatch loss stays the base no-op — run-to-completion
  // has no dispatch hop to lose frames on.
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  std::uint64_t drops() const;

  sim::Simulator& sim_;
  HostSpec spec_;
  /// Payload placement (§5.2); see HostSpec::placement.
  hw::PlacementPolicy placement_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::uint64_t malformed_ = 0;
  std::uint64_t rebalances_ = 0;
  /// ToR kCancel frames received and ignored: run-to-completion cores have
  /// no dispatch queue to drop the losing hedge leg from.
  std::uint64_t cancels_ignored_ = 0;
};

}  // namespace nicsched::core
