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

#include "core/model_params.h"
#include "core/server.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class DistributedServer final : public FaultableServer {
 public:
  enum class Policy { kRss, kFlowDirector, kWorkStealing, kElasticRss };

  struct Config {
    std::size_t worker_count = 4;
    Policy policy = Policy::kRss;
    std::uint16_t udp_port = 8080;
    /// kElasticRss: control-loop cadence and the ring-depth difference that
    /// triggers moving one indirection entry from hottest to coldest ring.
    sim::Duration rebalance_period = sim::Duration::micros(20);
    std::size_t rebalance_threshold = 4;
    /// Payload placement (§5.2). Unbounded per-core queues make kDdioL1
    /// pointless here under load — exactly the paper's argument for why L1
    /// placement needs a scheduler that bounds outstanding requests.
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioLlc;
    /// Overload control (DESIGN §11). Run-to-completion has no central
    /// queue, so each core makes its own decisions at parse time: shed
    /// already-expired requests and reject against its own ring depth and
    /// ring-sojourn EWMA. Off by default.
    overload::OverloadParams overload;
    /// Rack-level load feedback (DESIGN §12): responses echo the request's
    /// ring sojourn as a version-2 frame for ToR snooping. Off by default.
    bool load_feedback = false;
    /// Multi-tenant accounting and admission (DESIGN §13). Run-to-completion
    /// shares one FIFO ring per core, so there is no DRR here — requests are
    /// tenant-tagged for stats and each core runs per-tenant admission
    /// gates, which is exactly the isolation RTC *can* offer (and the bench
    /// shows it is not much). Off by default.
    tenant::TenantParams tenant;
  };

  DistributedServer(sim::Simulator& sim, net::EthernetSwitch& network,
                    const ModelParams& params, Config config);
  ~DistributedServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::uint16_t port() const override { return config_.udp_port; }
  std::string name() const override;
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  /// For kFlowDirector clients: partitions == worker_count, encoded as
  /// udp_port + partition.
  std::uint16_t partition_count() const {
    return config_.policy == Policy::kFlowDirector
               ? static_cast<std::uint16_t>(config_.worker_count)
               : 0;
  }

  /// Whether a datagram addressed to `dst_port` is a request for this
  /// server (flow-director mode listens on one port per partition).
  bool accepts_port(std::uint16_t dst_port) const {
    if (dst_port == config_.udp_port) return true;
    return config_.policy == Policy::kFlowDirector &&
           dst_port > config_.udp_port &&
           dst_port < config_.udp_port + config_.worker_count;
  }

  /// kElasticRss: indirection entries moved so far.
  std::uint64_t rebalances() const { return rebalances_; }

 private:
  class Worker;

  void rebalance_tick();
  // Fault surface: dispatch loss stays the base no-op — run-to-completion
  // has no dispatch hop to lose frames on.
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  std::uint64_t drops() const;

  sim::Simulator& sim_;
  ModelParams params_;
  Config config_;

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
