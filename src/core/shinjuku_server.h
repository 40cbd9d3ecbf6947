// Vanilla Shinjuku (NSDI '19, as summarized in §2.1/§4.1 of the paper):
// networking subsystem and centralized preemptive dispatcher on host cores,
// workers on the remaining cores, all communication through cache-line IPC.
//
//   82599ES NIC ─► networker ─► dispatcher(task queue) ─► worker 0..N-1
//                      (two hyperthreads of one physical core)
//
// The dispatcher assigns one request at a time to idle workers and preempts
// requests that exceed the time slice by sending a low-overhead posted
// interrupt to the worker's core — but only when another request is waiting,
// since it can see its own queue (the "informed" property Shinjuku-Offload
// loses with its fire-always local timer, §3.4.4).
//
// §2.2 problem 3 — limited scalability — is modelled too: with
// `dispatcher_count > 1` the server instantiates several
// networker+dispatcher pairs, RSS-steers client flows across them, and
// statically partitions the workers. Each extra pair burns another physical
// core, and RSS's flow granularity re-introduces load imbalance *between
// dispatcher groups*; `bench/ablation_multidispatcher` quantifies both.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/host_spec.h"
#include "core/host_worker.h"
#include "core/packet_pump.h"
#include "core/server.h"
#include "core/slice_timer.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class ShinjukuServer final : public FaultableServer {
 public:
  ShinjukuServer(sim::Simulator& sim, net::EthernetSwitch& network,
                 const HostSpec& spec);
  ~ShinjukuServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::string name() const override { return "shinjuku"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  std::size_t group_count() const { return groups_.size(); }
  /// Requests a group's networker has accepted; exposes RSS imbalance
  /// between dispatcher groups.
  std::uint64_t group_requests(std::size_t group) const;
  const CoreStatusTable& core_status(std::size_t group = 0) const;

 private:
  class Worker;

  struct StatusNote {
    std::size_t worker = 0;  // index within the group
    bool preempted = false;
    /// The request the note is about (requeued when preempted); reliable
    /// mode matches its id against `Group::held` to discard stale notes
    /// from re-steered work.
    proto::RequestDescriptor descriptor;
  };

  /// One networker+dispatcher pair with its worker partition.
  struct Group final : SliceTimer::Hooks {
    Group(ShinjukuServer& server, std::size_t index, std::size_t worker_count);

    bool work_waiting() const override { return !central.empty(); }
    void send_preempt(std::size_t worker) override;

    ShinjukuServer& server;
    std::size_t index;
    hw::CpuCore networker_core;
    hw::CpuCore dispatcher_core;
    std::unique_ptr<PacketPump> networker_pump;
    hw::MessageChannel<proto::RequestDescriptor> intake_channel;
    hw::MessageChannel<StatusNote> note_channel;
    bool pumping = false;

    /// Each dispatcher pair queues and admits against its own backlog, so an
    /// overloaded RSS bucket rejects while others accept.
    CentralQueue central;
    CoreStatusTable status;
    SliceTimer slice;  // token = per-worker assignment epoch
    std::vector<Worker*> workers;  // in-group slot order
    /// Reliable mode: what each worker was handed, kept so the liveness
    /// watchdog can re-steer the request if the worker dies holding it.
    std::vector<proto::RequestDescriptor> held;

    std::uint64_t requests_received = 0;
    std::uint64_t malformed = 0;
  };

  void networker_handle(Group& group, const net::Packet& packet);
  void dispatcher_kick(Group& group);
  void dispatcher_step(Group& group);

  void maybe_preempt_for_waiting_work(Group& group);

  bool reliable() const { return spec_.reliability.enabled; }
  void arm_liveness(Group& group, std::size_t worker, std::uint64_t epoch);
  // Fault surface: dispatch loss stays the base no-op — dispatcher↔worker
  // traffic here is lossless cache-line IPC.
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  std::uint64_t drops() const;

  sim::Simulator& sim_;
  HostSpec spec_;

  net::Nic nic_;
  net::NicInterface* pf_ = nullptr;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::unique_ptr<Worker>> workers_;  // global order
  ReliabilityStats rel_;
};

}  // namespace nicsched::core
