// Open-loop client machine, modelled after the mutilate-style UDP load
// generator the paper uses (§4): requests are issued on a Poisson schedule
// regardless of outstanding responses, so server slowdown shows up as
// latency, never as reduced offered load.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <unordered_map>

#include "net/ethernet_switch.h"
#include "net/nic.h"
#include "overload/overload.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "workload/arrival.h"
#include "workload/distribution.h"

namespace nicsched::workload {

/// One completed request as observed by the client.
struct ResponseRecord {
  std::uint64_t request_id = 0;
  std::uint16_t kind = 0;
  /// Tenant the issuing stream belongs to (DESIGN §13); 0 = untenanted.
  std::uint16_t tenant = 0;
  std::uint16_t preempt_count = 0;
  sim::TimePoint sent_at;
  sim::TimePoint received_at;
  sim::Duration work;
  /// Absolute deadline the request was issued with; origin (0) = none.
  sim::TimePoint deadline;

  sim::Duration latency() const { return received_at - sent_at; }
  /// Goodput test: completed in time (deadline-less requests always count).
  bool within_deadline() const {
    return deadline == sim::TimePoint() || received_at <= deadline;
  }
};

class ClientMachine {
 public:
  struct Config {
    std::uint32_t client_id = 0;
    net::MacAddress mac;
    net::Ipv4Address ip;
    /// Requests rotate their source port across [port_base,
    /// port_base+flow_count) to emulate many connections; RSS-based systems
    /// need flow diversity to spread load (§2.2 "require a large number of
    /// concurrent connections").
    std::uint16_t port_base = 20000;
    std::uint16_t flow_count = 64;
    net::MacAddress server_mac;
    net::Ipv4Address server_ip;
    std::uint16_t server_port = 8080;
    /// Extra payload bytes per request (request size experiments).
    std::uint16_t request_padding = 24;
    /// MICA-style client-assisted partitioning: when > 0 each request is
    /// addressed to server_port + partition, where the partition is drawn
    /// uniformly (a uniformly hashed key space). 0 sends everything to
    /// server_port.
    std::uint16_t partition_count = 0;
    /// One-way propagation between this client machine and the ToR.
    sim::Duration wire_latency = sim::Duration::micros(2);
    /// Overload-control knobs: per-request deadlines, timeout retries with
    /// backoff + jitter, retry budget. Disabled by default; when disabled
    /// the client's RNG draws and event sequence are untouched.
    overload::OverloadParams overload;
    /// Tenant id stamped on every request (DESIGN §13). 0 = untenanted:
    /// requests stay version-1 frames, bit-identical to pre-tenant builds.
    std::uint16_t tenant = 0;
  };

  using ResponseCallback = std::function<void(const ResponseRecord&)>;

  /// Creates the client with its own NIC attached to `network`.
  ClientMachine(sim::Simulator& sim, net::EthernetSwitch& network,
                Config config,
                std::shared_ptr<ServiceDistribution> service,
                std::unique_ptr<ArrivalProcess> arrivals, sim::Rng rng);

  void set_on_response(ResponseCallback callback) {
    on_response_ = std::move(callback);
  }

  /// Called at the instant each request is issued (for issued-in-window
  /// accounting by recorders).
  void set_on_issue(std::function<void(sim::TimePoint)> callback) {
    on_issue_ = std::move(callback);
  }

  /// Starts the open loop; no requests are issued after `until`.
  void start(sim::TimePoint until);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t outstanding() const { return pending_.size(); }
  /// Responses for requests no longer pending — re-executed work under
  /// reliable dispatch (the request was re-steered or the original worker
  /// revived and finished it twice). Conservation tests read this.
  std::uint64_t duplicates() const { return duplicates_; }
  /// Completed within deadline (== received() when deadlines are off).
  std::uint64_t goodput() const { return goodput_; }
  /// Terminal outcomes besides completion; at quiescence
  /// `sent == received + rejected + expired + abandoned + outstanding`.
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t expired() const { return expired_; }
  std::uint64_t abandoned() const { return abandoned_; }
  /// Timeout-triggered retransmissions (not counted in sent()).
  std::uint64_t retries() const { return retries_; }

 private:
  struct Pending {
    sim::TimePoint sent_at;
    sim::Duration work;
    std::uint16_t kind;
    sim::TimePoint deadline;       // origin = none
    std::uint32_t attempts = 1;    // transmissions so far
    net::DatagramAddress address;  // reused verbatim on retransmit
    sim::EventHandle timer;        // retry/expiry timer
  };

  void schedule_next_arrival();
  void issue_request();
  void handle_rx();
  void transmit_pending(std::uint64_t request_id, const Pending& pending);
  void arm_timer(std::uint64_t request_id, Pending& pending);
  void on_timer(std::uint64_t request_id);

  sim::Simulator& sim_;
  Config config_;
  std::shared_ptr<ServiceDistribution> service_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  sim::Rng rng_;
  /// Dedicated stream for retry-backoff jitter. Derived from the workload
  /// stream's seed but never shared with it: enabling retries must not
  /// perturb arrival/service/port draws, and runs with overload disabled
  /// draw nothing from it at all.
  sim::Rng retry_rng_;
  net::Nic nic_;
  net::NicInterface* interface_ = nullptr;

  sim::TimePoint issue_until_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t goodput_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t expired_ = 0;
  std::uint64_t abandoned_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t next_sequence_ = 0;
  /// Pools pending_'s per-request nodes; declared before it.
  sim::ArenaResource pending_arena_;
  std::pmr::unordered_map<std::uint64_t, Pending> pending_{&pending_arena_};
  ResponseCallback on_response_;
  std::function<void(sim::TimePoint)> on_issue_;
};

}  // namespace nicsched::workload
