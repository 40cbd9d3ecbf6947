// Cluster topology construction (DESIGN §12).
//
// Before this layer, the testbed hard-wired exactly one topology: one
// Ethernet switch joining client machines to one server instance. A rack is
// the same pieces one level up — N server hosts, each with its own local
// fabric, behind a ToR switch that steers requests — so topology becomes an
// explicit, composable object:
//
//   ClusterBuilder builder(sim);
//   builder.switch_latency(params.switch_forward_latency);
//   builder.with_rack(rack::TorParams::from_env());
//   for (int i = 0; i < 4; ++i) builder.add_host(HostSpec::offload());
//   Cluster cluster = builder.build();
//   // clients attach to cluster.client_network(), address
//   // cluster.service_mac()/service_ip()/service_port()
//
// Without `with_rack`, a one-host build produces *exactly* the pre-rack
// testbed wiring — same switch, same construction order, same frames — so
// every existing single-server experiment is the trivial instance of the
// same API and stays bit-identical.
//
// With a rack, each host gets its own local switch (server families
// hard-code their MAC plan, so two hosts cannot share a fabric), the ToR
// owns a virtual service endpoint on the client-side switch, and each host
// fabric default-routes unknown unicast (server→client responses) up
// through the ToR, which snoops load feedback on the way past.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/host_spec.h"
#include "core/server.h"
#include "core/testbed.h"
#include "fault/fault_surface.h"
#include "net/ethernet_switch.h"
#include "rack/tor_scheduler.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace nicsched::core {

/// A built topology: the client-side network, one or more server hosts, and
/// (for multi-host builds) the ToR scheduler joining them. Move-only; owns
/// every switch, server, and the ToR.
///
/// The cluster is also the rack's fault surface (DESIGN §16): host-scoped
/// faults resolve through it onto the components the builder wired — a host
/// "crash" freezes every worker core of that host's server (the frozen-
/// incarnation model; the NIC-path probe responder keeps answering, the
/// cores just stop), and link partitions become total loss on the host's
/// uplink / the ToR's downlink wire. Each injection point also reports the
/// simulator shard that owns it, so `FaultInjector` schedules every
/// mutation on the right shard.
class Cluster : public fault::ClusterFaultSurface {
 public:
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  /// The switch client machines attach to (the pre-rack `network`).
  net::EthernetSwitch& client_network() { return *client_network_; }

  std::size_t host_count() const { return hosts_.size(); }
  Server& server(std::size_t host = 0) { return *hosts_.at(host).server; }
  const Server& server(std::size_t host = 0) const {
    return *hosts_.at(host).server;
  }
  const HostSpec& spec(std::size_t host = 0) const {
    return hosts_.at(host).spec;
  }
  /// The host's local fabric (== client_network() when there is no rack).
  net::EthernetSwitch& host_network(std::size_t host = 0) {
    return *hosts_.at(host).network;
  }

  /// The simulator shard this host's components schedule on. Identical to
  /// the builder's front simulator unless the cluster was built over a
  /// multi-shard ShardGroup. Anything injected into a host mid-run (fault
  /// surfaces, probes) must schedule here, not on shard 0.
  sim::Simulator& host_sim(std::size_t host = 0) { return *hosts_.at(host).sim; }
  /// Shard index the host was placed on (0 without sharding).
  std::uint32_t host_shard(std::size_t host = 0) const {
    return hosts_.at(host).shard;
  }

  /// Non-null for multi-host builds.
  rack::TorScheduler* tor() { return tor_.get(); }
  const rack::TorScheduler* tor() const { return tor_.get(); }

  /// What clients address: the ToR's virtual service endpoint when a rack
  /// exists, host 0's ingress otherwise.
  net::MacAddress service_mac() const;
  net::Ipv4Address service_ip() const;
  std::uint16_t service_port() const;

  /// FlowDirector partition count of host 0 (0 for other systems); every
  /// host of a homogeneous rack exposes the same partition plan and the ToR
  /// preserves destination ports, so one value serves all hosts.
  std::uint16_t partition_count() const;

  /// Sum of per-host stats (max for queue depth, concatenated worker
  /// utilization); equals host 0's stats for single-host builds.
  ServerStats stats(sim::Duration elapsed) const;

  // ---- fault::ClusterFaultSurface -----------------------------------------
  std::uint32_t fault_host_count() const override {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  fault::FaultSurface& host_surface(std::uint32_t host) override;
  sim::Simulator& host_fault_sim(std::uint32_t host) override {
    return *hosts_.at(host).sim;
  }
  sim::Simulator& rack_fault_sim() override { return *front_sim_; }
  void inject_host_freeze(std::uint32_t host) override;
  void inject_host_thaw(std::uint32_t host) override;
  void inject_uplink_partition(std::uint32_t host, bool on) override;
  void inject_downlink_partition(std::uint32_t host, bool on) override;

 private:
  friend class ClusterBuilder;
  struct Host {
    std::unique_ptr<net::EthernetSwitch> network;  // null when no rack
    std::unique_ptr<Server> server;
    HostSpec spec;
    sim::Simulator* sim = nullptr;
    std::uint32_t shard = 0;
    /// Health-probe reflector parked on the host fabric (failover only).
    std::unique_ptr<net::PacketSink> probe_responder;
  };
  Cluster() = default;

  std::unique_ptr<net::EthernetSwitch> client_network_;
  std::unique_ptr<rack::TorScheduler> tor_;
  std::vector<Host> hosts_;
  sim::Simulator* front_sim_ = nullptr;
};

/// Fluent topology builder. Add one host for the classic single-server
/// testbed; call `with_rack` before `build` to put N hosts behind a ToR.
class ClusterBuilder {
 public:
  explicit ClusterBuilder(sim::Simulator& sim) : sim_(sim) {}

  /// Shard-aware form (DESIGN §14): clients, the client switch, and the ToR
  /// build on shard 0; host `i` of an N-host rack builds on shard
  /// `1 + i % (shards - 1)`, and the ToR↔host wires become cross-shard
  /// mailbox links whose 500 ns propagation is the group's lookahead. A
  /// one-shard group is exactly the serial constructor.
  explicit ClusterBuilder(sim::ShardGroup& group)
      : sim_(group.front()), group_(&group) {}

  /// Switching-decision latency for every switch in the topology (client
  /// side and per-host fabrics).
  ClusterBuilder& switch_latency(sim::Duration latency) {
    switch_latency_ = latency;
    return *this;
  }

  /// Enables the ToR layer. Required for multi-host builds; ignored for
  /// single-host builds (the trivial rack *is* the plain testbed, which
  /// keeps one-host experiments bit-identical with or without the call).
  ClusterBuilder& with_rack(rack::TorParams params) {
    rack_params_ = params;
    return *this;
  }

  /// Registers a host; returns its index.
  std::size_t add_host(HostSpec spec) {
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
  }

  /// Builds the topology. Single host without with_rack: one switch, one
  /// server, pre-rack construction order. Multi host: client switch + ToR +
  /// per-host fabrics, with the kJsqIdeal oracle wired to true server
  /// telemetry. Throws std::invalid_argument for 0 hosts or for multiple
  /// hosts without with_rack.
  Cluster build();

 private:
  std::uint32_t shard_for_host(std::size_t index) const;

  sim::Simulator& sim_;
  sim::ShardGroup* group_ = nullptr;
  sim::Duration switch_latency_ = ModelParams::defaults().switch_forward_latency;
  std::optional<rack::TorParams> rack_params_;
  std::vector<HostSpec> specs_;
};

}  // namespace nicsched::core
