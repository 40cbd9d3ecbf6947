// Shinjuku-Offload (§3.4): the Shinjuku networking subsystem and dispatcher
// running on the SmartNIC's ARM cores, with workers on host cores reached
// only by UDP packets through the NIC.
//
//   ARM SoC (Stingray)                          x86 host
//   ┌─────────────────────────────┐             ┌──────────────────────┐
//   │ networker ─► D1 (task queue)│  assignment │ worker 0 (vf0, timer)│
//   │               │ ch    ▲ ch  │  packets    │ worker 1 (vf1, timer)│
//   │               ▼       │     │ ──────────► │  ...                 │
//   │          D2 (pkt send)│     │  completion/│ worker N (vfN, timer)│
//   │          D3 (resp poll)◄────┼─────────────┤                      │
//   └─────────────────────────────┘  preemption └──────────────────────┘
//
// The dispatcher is split across three ARM cores "due to the high overhead
// of constructing and sending packets" (§3.4.1): D1 manages the centralized
// task queue and worker slots, D2 builds and sends assignment frames, D3
// polls and parses worker notification frames. Workers preempt themselves
// with a Dune-mapped local APIC timer (§3.4.4) and the dispatcher keeps up
// to K requests outstanding per worker to hide the 2.56 µs packet path
// (§3.4.5, the "queuing optimization").
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/central_queue.h"
#include "core/core_status.h"
#include "core/host_spec.h"
#include "core/packet_pump.h"
#include "core/reliable_dispatch.h"
#include "core/seq_bitmap.h"
#include "core/server.h"
#include "hw/apic_timer.h"
#include "hw/channel.h"
#include "hw/cpu_core.h"
#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "sim/simulator.h"

namespace nicsched::core {

class ShinjukuOffloadServer final : public FaultableServer {
 public:
  ShinjukuOffloadServer(sim::Simulator& sim, net::EthernetSwitch& network,
                        const HostSpec& spec);
  ~ShinjukuOffloadServer() override;

  net::MacAddress ingress_mac() const override;
  net::Ipv4Address ingress_ip() const override;
  std::string name() const override { return "shinjuku-offload"; }
  ServerStats stats(sim::Duration elapsed) const override;
  ServerTelemetry telemetry() const override;

  /// Dispatcher-believed worker status (for the feedback-staleness example).
  const CoreStatusTable& core_status() const { return status_; }

  /// Real loss on the UDP dispatcher↔worker path, both directions.
  void inject_dispatch_loss(double probability, std::uint64_t seed) override;

 private:
  class Worker;

  struct Assignment {
    proto::RequestDescriptor descriptor;
    std::size_t worker;
    std::uint64_t seq = 0;  // 0 = unreliable legacy frame
  };

  struct Note {
    std::size_t worker = 0;
    bool preempted = false;
    proto::RequestDescriptor descriptor;  // valid when preempted
    /// Piggybacked worker queue-sojourn sample (adaptive-K input).
    bool has_sojourn = false;
    std::uint64_t sojourn_ps = 0;
  };

  void networker_handle(const net::Packet& packet);
  void d1_kick();
  void d1_step();
  void d2_send(Assignment assignment);
  void d3_handle(net::Packet packet);

  /// Hands an assignment to the next D2 sender core, round-robin.
  void send_assignment(Assignment assignment);
  bool reliable() const { return spec_.reliability.enabled; }
  hw::CpuCore& worker_core(std::uint32_t worker) override;
  std::uint64_t drops() const;
  void handle_sequenced_note(std::size_t worker, proto::SequencedNote note);

  sim::Simulator& sim_;
  HostSpec spec_;
  /// Where the Stingray writes assignment payloads on the host (§5.2).
  hw::PlacementPolicy placement_;

  // --- Stingray ARM side -------------------------------------------------
  net::Nic arm_nic_;
  net::NicInterface* arm_net_ = nullptr;   // client-facing interface
  net::NicInterface* arm_disp_ = nullptr;  // dispatcher↔worker interface
  hw::CpuCore networker_core_;
  hw::CpuCore d1_core_;
  hw::CpuCore d3_core_;
  std::unique_ptr<PacketPump> networker_pump_;
  std::unique_ptr<PacketPump> d3_pump_;
  hw::MessageChannel<proto::RequestDescriptor> intake_channel_;
  hw::MessageChannel<Note> note_channel_;
  /// One D2 sender core per entry, each with its own work channel; D1
  /// round-robins assignments across them.
  struct SenderCore {
    std::unique_ptr<hw::CpuCore> core;
    std::unique_ptr<hw::MessageChannel<Assignment>> channel;
    std::unique_ptr<ChannelPump<Assignment>> pump;
  };
  std::vector<SenderCore> senders_;
  std::size_t next_sender_ = 0;
  bool d1_pumping_ = false;

  CentralQueue central_;
  CoreStatusTable status_;

  // --- host side -----------------------------------------------------------
  net::Nic host_nic_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // --- counters ------------------------------------------------------------
  std::uint64_t requests_received_ = 0;
  std::uint64_t preemption_requeues_ = 0;
  std::uint64_t malformed_ = 0;

  // --- overload control (DESIGN §11; inert when !config_.overload.enabled) -
  overload::AdaptiveKController adaptive_k_;

  // --- reliable dispatch (DESIGN §9; idle when !reliable()) ----------------
  ReliableDispatch reliable_;
  std::uint64_t next_seq_ = 1;  // 0 selects the unreliable legacy frame
  /// Per-worker dedupe of sequenced notes.
  std::vector<SeqBitmap> seen_note_seqs_;
};

}  // namespace nicsched::core
