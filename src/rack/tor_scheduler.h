// Rack-scale request steering at the top-of-rack switch (DESIGN §12).
//
// The paper argues the NIC is the right place for *intra*-server scheduling
// because it sees every request before the host does. RackSched (OSDI '20,
// PAPERS.md) extends the same argument one level up: a ToR switch sees every
// request before any *server* does, so a two-level policy — request-level
// inter-server load balancing at the ToR on top of the per-server NIC
// schedulers this repo already models — approaches a centralized ideal
// scheduler for the whole rack.
//
// `TorScheduler` is that top level. It owns a virtual service endpoint (one
// VIP MAC/IP the clients address), a downlink wire per backend host, and a
// per-host uplink sink that snoops server→client responses for piggybacked
// load feedback before forwarding them on. Steering policies:
//
//   kFlowHash    flow-level ECMP: a five-tuple hash pins each flow to one
//                host. The uninformed baseline that collapses under skew.
//   kRoundRobin  request-level, uninformed.
//   kRandom      request-level, uninformed.
//   kPowerOfTwo  request-level power-of-two-choices on piggybacked feedback
//                (queue depth + EWMA sojourn snooped off responses).
//   kJsqIdeal    join-shortest-queue on an oracle that reads true
//                instantaneous server state — the centralized-ideal upper
//                bound with zero feedback staleness.
//
// Feedback is stale by construction (it rode a response through real wires),
// so staleness is modelled explicitly: samples older than
// `feedback_stale_after` are ignored and the decision falls back to the
// ToR's own outstanding-request count, which is never stale.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ethernet_switch.h"
#include "net/packet.h"
#include "net/wire.h"
#include "sim/arena.h"
#include "sim/random.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace nicsched::rack {

enum class TorPolicy : std::uint8_t {
  kFlowHash = 0,
  kRoundRobin = 1,
  kRandom = 2,
  kPowerOfTwo = 3,
  kJsqIdeal = 4,
};

const char* to_string(TorPolicy policy);
std::optional<TorPolicy> tor_policy_from_string(std::string_view name);

struct TorParams {
  TorPolicy policy = TorPolicy::kPowerOfTwo;

  /// Per-request steering decision cost in the switch pipeline. RackSched
  /// implements the decision in P4 match-action stages at line rate; a small
  /// constant models the extra pipeline passes.
  sim::Duration decision_latency = sim::Duration::nanos(50);

  /// ToR↔host port propagation + line rate. Rack links are a hop shorter
  /// than the client path and typically faster than host NICs.
  sim::Duration host_link_latency = sim::Duration::nanos(500);
  double host_link_gbps = 40.0;

  /// EWMA smoothing for snooped sojourn samples (per host).
  double sojourn_alpha = 0.3;
  /// How a microsecond of EWMA sojourn trades against one unit of queue
  /// depth when scoring a host.
  double sojourn_weight_per_us = 1.0;
  /// Feedback older than this is ignored; the decision then scores hosts on
  /// the ToR-local outstanding count only. This is the sweepable staleness
  /// knob: 0 disables feedback entirely, Duration::max() trusts any sample.
  sim::Duration feedback_stale_after = sim::Duration::micros(100);

  /// Request→host affinity entries idle longer than this are evicted (and
  /// their outstanding slot reclaimed). Covers client retry horizons.
  sim::Duration affinity_ttl = sim::Duration::millis(5);

  /// Rack-level death verdict: a host with outstanding requests that has
  /// been silent this long is presumed dead; its feedback state is cleared
  /// and informed policies steer away until it is heard from again.
  sim::Duration host_timeout = sim::Duration::millis(1);

  // ---- failure handling (DESIGN §16), everything below default-off -------

  /// Master switch for active failure handling: health probing, host
  /// ejection on probe timeout, draining/re-steering of in-flight requests
  /// off a dead host, and duplicate-response suppression. Off, the ToR
  /// behaves bit-identically to the passive silence-verdict-only design.
  bool failover = false;

  /// Health tick period, and the uplink-silence threshold after which a
  /// probe is sent: a host that produced any uplink frame within the last
  /// interval is presumed alive for free (feedback-silence detection); only
  /// quiet hosts spend a probe.
  sim::Duration probe_interval = sim::Duration::micros(200);

  /// A probe unanswered for this long is a death verdict — the NIC-level
  /// complement to `host_timeout`, which needs outstanding requests to
  /// trigger. Ejection reuses the same epoch machinery; readmission happens
  /// the moment any uplink frame (usually a late probe ack) arrives.
  sim::Duration probe_timeout = sim::Duration::micros(100);

  /// Opt-in hedged requests, informed by the ToR's health view: a request
  /// still unanswered `hedge_after` after its first steer is duplicated to
  /// a second host — but only if its primary host has also been uplink-
  /// silent for that whole window. A host that produced any frame recently
  /// is alive and merely queueing; duplicating its work would amplify load
  /// exactly when the rack has the least headroom, so those requests wait.
  /// The first response wins and the loser copy is cancelled (best-effort)
  /// and its eventual duplicate response suppressed. Composes with client
  /// retry budgets — the client sees exactly one response either way.
  bool hedge = false;
  sim::Duration hedge_after = sim::Duration::micros(50);
  /// Send a kCancel for the loser copy once a winner responds. On by
  /// default (when hedging is on) — cancellation is what keeps hedges from
  /// doubling backend load at high utilization.
  bool hedge_cancel = true;

  /// Seed for the ToR's own RNG stream (kRandom draws, kPowerOfTwo
  /// candidate pairs). Forked per TorScheduler, never shared with clients
  /// or servers, so adding a rack does not perturb their streams. The
  /// failover paths (re-steer targets, hedge backups) deliberately draw
  /// nothing from it: they pick by deterministic score, so enabling
  /// failover never perturbs the policy's RNG sequence.
  std::uint64_t seed = 0x70F2;

  /// Applies NICSCHED_RACK_* environment overrides on top of `base`:
  ///   NICSCHED_RACK_POLICY          flow_hash|round_robin|random|p2c|jsq
  ///   NICSCHED_RACK_DECISION_NS     steering decision latency
  ///   NICSCHED_RACK_LINK_NS         ToR↔host propagation
  ///   NICSCHED_RACK_LINK_GBPS      ToR↔host line rate
  ///   NICSCHED_RACK_STALE_US        feedback staleness tolerance
  ///   NICSCHED_RACK_SOJOURN_ALPHA   EWMA smoothing factor
  ///   NICSCHED_RACK_SOJOURN_WEIGHT  sojourn-vs-depth score weight
  ///   NICSCHED_RACK_AFFINITY_TTL_US affinity eviction horizon
  ///   NICSCHED_RACK_HOST_TIMEOUT_US death-verdict silence threshold
  ///   NICSCHED_RACK_FAILOVER            enable probing/ejection/draining
  ///   NICSCHED_RACK_FAILOVER_PROBE_US   health tick / silence threshold
  ///   NICSCHED_RACK_FAILOVER_TIMEOUT_US probe-timeout death verdict
  ///   NICSCHED_RACK_HEDGE               enable hedged requests
  ///   NICSCHED_RACK_HEDGE_US            hedge trigger delay
  ///   NICSCHED_RACK_HEDGE_CANCEL        cancel the loser copy (default on)
  static TorParams from_env(TorParams base);
  static TorParams from_env() { return from_env(TorParams{}); }
};

/// Per-tenant slice of the ToR's steering/feedback counters (DESIGN §13):
/// the rack-level view of which tenant the forwarded requests and snooped
/// responses belong to, so p2c feedback and PR 5 backpressure verdicts stay
/// tenant-attributable. Rows appear in first-seen order. Untenanted traffic
/// (wire tenant 0) is not tracked — the vectors stay empty, and the stats
/// bit-identical, when the tenant layer is off.
struct RackTenantStats {
  std::uint16_t tenant = 0;
  std::uint64_t requests = 0;     // forwards (including affinity retransmits)
  std::uint64_t responses = 0;    // kResponse frames matched to an affinity
  std::uint64_t rejects = 0;      // kReject frames matched to an affinity
  std::uint64_t outstanding = 0;  // ToR-local in-flight count
};

struct RackHostStats {
  std::uint64_t requests = 0;   // requests steered to this host
  std::uint64_t responses = 0;  // responses matched to an affinity entry
  std::uint64_t rejects = 0;    // rejects matched to an affinity entry
  std::uint64_t outstanding = 0;  // in-flight snapshot at stats() time
  std::uint64_t deaths = 0;       // silence verdicts
  std::uint64_t revivals = 0;     // heard from again after a verdict
  std::uint64_t resets = 0;       // external mark_host_reset calls
  /// Feedback samples discarded because their request was forwarded before
  /// the host's last death verdict / reset — the rack-level analogue of the
  /// per-worker reset-on-death EWMA rule (DESIGN §11): a late sample from a
  /// previous incarnation must not resurrect the dead incarnation's load
  /// estimate.
  std::uint64_t feedback_discarded = 0;
  double sojourn_ewma_us = 0.0;   // snapshot (0 until seeded)
  std::uint32_t queue_depth = 0;  // last snooped depth (0 until seeded)
  /// Per-tenant slice of this host's counters; empty for untenanted runs.
  std::vector<RackTenantStats> tenants;
};

struct RackStats {
  std::uint64_t requests_forwarded = 0;
  std::uint64_t responses_forwarded = 0;  // kResponse frames sent client-ward
  std::uint64_t rejects_forwarded = 0;    // kReject frames sent client-ward
  std::uint64_t other_forwarded = 0;      // non-client-facing uplink frames
  std::uint64_t malformed_dropped = 0;
  std::uint64_t affinity_hits = 0;     // retransmits steered to their host
  std::uint64_t affinity_expired = 0;  // TTL evictions
  std::uint64_t unknown_responses = 0;  // no affinity entry (dup/expired)
  std::uint64_t informed_decisions = 0;  // p2c with fresh feedback
  std::uint64_t stale_decisions = 0;     // p2c fell back to outstanding-only
  std::uint64_t feedback_samples = 0;    // accepted into a host estimate
  std::uint64_t feedback_discarded_dead = 0;  // sum of per-host discards
  // Failure handling (DESIGN §16); all zero with failover/hedging off.
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_acks = 0;
  std::uint64_t probe_deaths = 0;        // probe-timeout death verdicts
  std::uint64_t requests_resteered = 0;  // drained off a dead host
  std::uint64_t hedges_sent = 0;         // backup copies dispatched
  std::uint64_t hedge_wins = 0;          // backup answered first
  std::uint64_t cancels_sent = 0;        // loser-copy cancellations
  std::uint64_t duplicates_suppressed = 0;  // dup responses swallowed at ToR
  std::vector<RackHostStats> hosts;
  /// Rack-wide per-tenant rows (per-host slices summed, first-seen order).
  std::vector<RackTenantStats> tenants;
};

/// The ToR request scheduler. Clients address the VIP; `deliver` steers each
/// request to a backend host; per-host uplink sinks snoop and forward the
/// return traffic. All state is ToR-local — hosts and clients are unmodified
/// and unaware of the rack layer.
class TorScheduler : public net::PacketSink {
 public:
  /// MAC/IP index of the virtual service endpoint on the client-side
  /// switch. Far above any client index (clients use small integers).
  static constexpr std::uint32_t kVipIndex = 0xF0'0000;

  /// MAC/IP index of each host's probe responder on its *local* fabric
  /// (every host fabric is a separate switch, so one reserved index serves
  /// all hosts; the ProbeMessage host field disambiguates). Only attached
  /// when failover is on, so the off topology is construction-identical.
  static constexpr std::uint32_t kProbeIndex = 0xF1'0000;
  static net::MacAddress probe_mac() {
    return net::MacAddress::from_index(kProbeIndex);
  }
  static net::Ipv4Address probe_ip() {
    return net::Ipv4Address::from_index(kProbeIndex);
  }

  TorScheduler(sim::Simulator& sim, TorParams params);
  ~TorScheduler() override;

  TorScheduler(const TorScheduler&) = delete;
  TorScheduler& operator=(const TorScheduler&) = delete;

  /// Registers a backend host whose ingress endpoint (the server's PF) is
  /// `mac`/`ip` on `host_network`. Steered requests are readdressed to
  /// `mac`/`ip` and egress on a dedicated downlink wire into the host's
  /// fabric. Returns the host index.
  std::size_t add_host(net::MacAddress mac, net::Ipv4Address ip,
                       net::PacketSink& host_network);

  /// The sink a host fabric's uplink (EthernetSwitch::set_uplink) should
  /// target: frames arriving here are snooped for load feedback, then
  /// forwarded on toward the clients.
  net::PacketSink& host_uplink(std::size_t host);

  /// Attaches the VIP endpoint to the client-side switch: frames the
  /// clients send to `vip_mac()` reach `deliver`, and snooped return
  /// traffic re-enters `client_network` for final delivery.
  void attach(net::EthernetSwitch& client_network, sim::Duration latency,
              double gbps);

  net::MacAddress vip_mac() const;
  net::Ipv4Address vip_ip() const;
  std::size_t host_count() const { return hosts_.size(); }

  /// The ToR→host downlink wire, for shard placement: when host `host` runs
  /// on its own shard, the cluster builder marks this wire as crossing from
  /// the ToR's shard to the host's.
  net::Wire& downlink_wire(std::size_t host) { return *hosts_[host]->downlink; }

  /// Installs the kJsqIdeal oracle: a function returning host `i`'s true
  /// instantaneous load. Centralized-ideal baseline — no wire, no staleness.
  void set_oracle(std::function<double(std::size_t)> oracle);

  /// External notice that a host lost state (e.g. a fault schedule killed
  /// its dispatcher): clears the host's feedback estimates and discards
  /// samples from requests forwarded before this instant.
  void mark_host_reset(std::size_t host);

  /// PacketSink: a client→VIP frame to steer.
  void deliver(net::Packet packet) override;

  RackStats stats() const;

  /// ToR-local in-flight count for one host (test/telemetry accessor).
  std::uint64_t outstanding(std::size_t host) const;
  const TorParams& params() const { return params_; }

 private:
  struct HostUplink;

  struct HostState {
    std::size_t index = 0;
    net::MacAddress mac;
    net::Ipv4Address ip;
    std::unique_ptr<net::Wire> downlink;
    std::unique_ptr<HostUplink> uplink;

    std::uint64_t outstanding = 0;
    sim::TimePoint outstanding_since;  // last 0→nonzero transition
    sim::TimePoint last_heard;         // last uplink frame from this host
    sim::TimePoint reset_at;           // feedback epoch floor
    bool dead = false;

    bool sojourn_seeded = false;
    double sojourn_ewma_us = 0.0;
    bool depth_seeded = false;
    std::uint32_t queue_depth = 0;
    sim::TimePoint feedback_at;  // when the freshest sample arrived

    // Health probing (failover only).
    bool probe_outstanding = false;
    sim::TimePoint probe_sent_at;
    std::uint64_t probe_seq = 0;

    RackHostStats counters;  // requests/responses/deaths/... (not snapshots)
  };

  /// Everything needed to re-materialize a steered request on another
  /// host's downlink (drain/re-steer and hedge copies). Only populated when
  /// failover or hedging is on, so the default configuration pays nothing.
  /// Recycled through `spare_stored_`, payload capacity included.
  struct StoredRequest {
    net::MacAddress src_mac;
    net::Ipv4Address src_ip;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::vector<std::uint8_t> payload;
  };

  static constexpr std::uint32_t kNoHost = 0xFFFF'FFFF;

  struct Affinity {
    std::uint32_t host = 0;
    /// Wire tenant tag snooped off the request (0 = untenanted); return
    /// traffic is attributed to this tenant without reparsing.
    std::uint16_t tenant = 0;
    sim::TimePoint first_sent;
    sim::TimePoint last_sent;
    /// Backup host carrying the hedge copy (kNoHost = none).
    std::uint32_t hedge_host = kNoHost;
    std::unique_ptr<StoredRequest> stored;
  };

  /// Find-or-append the per-tenant row for `id` (first-seen order).
  static RackTenantStats& tenant_row(std::vector<RackTenantStats>& rows,
                                     std::uint16_t id);

  void from_host(std::size_t host, net::Packet packet);
  void steer(net::Packet packet, const net::UdpDatagramView& view,
             std::uint64_t request_id, std::uint16_t tenant);
  std::size_t pick_host(const net::FiveTuple& flow);
  double score(HostState& host, sim::TimePoint now, bool& fresh);
  bool dead_now(HostState& host, sim::TimePoint now);
  /// The dead verdict's mutation half: epoch bump, estimate clear, and —
  /// with failover on — draining the host's in-flight requests.
  void declare_dead(HostState& host, sim::TimePoint now);
  /// Lowest-score non-dead host (ties → lowest index), skipping `exclude`,
  /// or `fallback` when every candidate is dead. Deterministic: draws no
  /// randomness, so failover re-steers never perturb the policy RNG
  /// sequence. Pass `exclude >= hosts_.size()` to consider every host.
  std::size_t best_alive(sim::TimePoint now, std::size_t fallback,
                         std::size_t exclude);
  /// Re-steers every in-flight request pinned to `host` onto the best
  /// alive host (failover only; requests with no stored copy stay put and
  /// age out via the affinity TTL).
  void drain_host(HostState& host, sim::TimePoint now);
  void transmit_stored(const StoredRequest& stored, HostState& target);
  void health_tick();
  void send_probe(HostState& host, sim::TimePoint now);
  void maybe_hedge(std::uint64_t request_id);
  void send_cancel(HostState& host, std::uint64_t request_id,
                   std::uint16_t dst_port);
  void fold_feedback(HostState& host, const Affinity& entry,
                     std::uint32_t depth, bool has_sojourn,
                     std::uint64_t sojourn_ps);
  /// Gives back the outstanding slots an affinity entry holds on its
  /// primary (and, if hedged, backup) host plus the tenant row.
  void reclaim_slots(const Affinity& entry);
  /// Resolves a request: reclaims slots, records the id for duplicate
  /// suppression (dedupe_active() only), and drops the affinity entry.
  void complete(std::uint64_t request_id);
  /// Drops an affinity entry, keeping its stored copy for reuse.
  void erase_affinity(
      std::pmr::unordered_map<std::uint64_t, Affinity>::iterator it);
  void sweep_affinity(sim::TimePoint now);
  bool dedupe_active() const { return params_.failover || params_.hedge; }
  void sweep_completed(sim::TimePoint now);

  sim::Simulator& sim_;
  TorParams params_;
  sim::Rng rng_;
  net::EthernetSwitch* client_network_ = nullptr;
  std::vector<std::unique_ptr<HostState>> hosts_;
  std::function<double(std::size_t)> oracle_;
  std::uint64_t round_robin_next_ = 0;

  /// Pools the per-request nodes of affinity_ and completed_; declared
  /// before them.
  sim::ArenaResource arena_;
  std::pmr::unordered_map<std::uint64_t, Affinity> affinity_{&arena_};
  /// Insertion-ordered (request_id, last_sent) log for lazy TTL sweeps; an
  /// entry whose logged time no longer matches the map is re-validated, not
  /// evicted.
  sim::Ring<std::pair<std::uint64_t, sim::TimePoint>> affinity_log_;
  std::vector<std::unique_ptr<StoredRequest>> spare_stored_;

  /// Recently completed request ids (dedupe_active() only): a response for
  /// one of these is a late duplicate — a thawed host or hedge loser — and
  /// is swallowed instead of reaching the client twice. Swept lazily on the
  /// affinity TTL, mirroring affinity_log_.
  std::pmr::unordered_map<std::uint64_t, sim::TimePoint> completed_{&arena_};
  sim::Ring<std::pair<std::uint64_t, sim::TimePoint>> completed_log_;

  RackStats stats_;
};

}  // namespace nicsched::rack
