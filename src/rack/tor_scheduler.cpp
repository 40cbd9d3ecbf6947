#include "rack/tor_scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/env_spec.h"
#include "proto/messages.h"

namespace nicsched::rack {

namespace {

/// Score offset that makes a presumed-dead host lose every comparison while
/// preserving relative order among dead hosts (both-dead pairs still pick
/// the less loaded one).
constexpr double kDeadPenalty = 1e18;

/// Score penalty for a *suspect* host: failover is on, the host has work
/// outstanding, and it has been uplink-silent past the probe threshold —
/// the prober is already worried, so steering should be too. Half the dead
/// penalty: suspects outrank confirmed-dead hosts but lose to any healthy
/// one. Without this, hedge wins keep reclaiming a dead host's outstanding
/// slots, so load-based scores re-pick it throughout the whole detection
/// window instead of only until its slots fill.
constexpr double kSuspectPenalty = 5e17;

/// UDP port the ToR's own control frames (health probes, hedged-request
/// cancels) use as their source; probes also target it on the responder.
constexpr std::uint16_t kControlPort = 0xF0F0;

}  // namespace

const char* to_string(TorPolicy policy) {
  switch (policy) {
    case TorPolicy::kFlowHash:
      return "flow_hash";
    case TorPolicy::kRoundRobin:
      return "round_robin";
    case TorPolicy::kRandom:
      return "random";
    case TorPolicy::kPowerOfTwo:
      return "p2c";
    case TorPolicy::kJsqIdeal:
      return "jsq";
  }
  return "unknown";
}

std::optional<TorPolicy> tor_policy_from_string(std::string_view name) {
  if (name == "flow_hash" || name == "ecmp") return TorPolicy::kFlowHash;
  if (name == "round_robin" || name == "rr") return TorPolicy::kRoundRobin;
  if (name == "random") return TorPolicy::kRandom;
  if (name == "p2c" || name == "power_of_two") return TorPolicy::kPowerOfTwo;
  if (name == "jsq" || name == "ideal") return TorPolicy::kJsqIdeal;
  return std::nullopt;
}

TorParams TorParams::from_env(TorParams base) {
  using core::EnvSpec;
  std::string text;
  if (EnvSpec::text("NICSCHED_RACK_POLICY", text)) {
    if (const auto parsed = tor_policy_from_string(text)) base.policy = *parsed;
  }
  base.decision_latency =
      EnvSpec::nanos("NICSCHED_RACK_DECISION_NS", base.decision_latency);
  base.host_link_latency =
      EnvSpec::nanos("NICSCHED_RACK_LINK_NS", base.host_link_latency);
  base.host_link_gbps =
      EnvSpec::number("NICSCHED_RACK_LINK_GBPS", base.host_link_gbps);
  base.feedback_stale_after =
      EnvSpec::micros("NICSCHED_RACK_STALE_US", base.feedback_stale_after);
  base.sojourn_alpha =
      EnvSpec::number("NICSCHED_RACK_SOJOURN_ALPHA", base.sojourn_alpha);
  base.sojourn_weight_per_us =
      EnvSpec::number("NICSCHED_RACK_SOJOURN_WEIGHT", base.sojourn_weight_per_us);
  base.affinity_ttl =
      EnvSpec::micros("NICSCHED_RACK_AFFINITY_TTL_US", base.affinity_ttl);
  base.host_timeout =
      EnvSpec::micros("NICSCHED_RACK_HOST_TIMEOUT_US", base.host_timeout);
  base.failover = EnvSpec::flag("NICSCHED_RACK_FAILOVER", base.failover);
  base.probe_interval = EnvSpec::micros("NICSCHED_RACK_FAILOVER_PROBE_US",
                                        base.probe_interval);
  base.probe_timeout = EnvSpec::micros("NICSCHED_RACK_FAILOVER_TIMEOUT_US",
                                       base.probe_timeout);
  base.hedge = EnvSpec::flag("NICSCHED_RACK_HEDGE", base.hedge);
  base.hedge_after = EnvSpec::micros("NICSCHED_RACK_HEDGE_US", base.hedge_after);
  base.hedge_cancel =
      EnvSpec::flag("NICSCHED_RACK_HEDGE_CANCEL", base.hedge_cancel);
  base.seed = EnvSpec::u64("NICSCHED_RACK_SEED", base.seed);
  return base;
}

/// Per-host uplink adapter: tags arriving frames with their source host so
/// the ToR can snoop the right feedback stream before forwarding.
struct TorScheduler::HostUplink final : net::PacketSink {
  HostUplink(TorScheduler& tor, std::size_t index) : tor_(tor), index_(index) {}
  void deliver(net::Packet packet) override {
    tor_.from_host(index_, std::move(packet));
  }
  TorScheduler& tor_;
  std::size_t index_;
};

TorScheduler::TorScheduler(sim::Simulator& sim, TorParams params)
    : sim_(sim), params_(params), rng_(params.seed) {}

TorScheduler::~TorScheduler() = default;

std::size_t TorScheduler::add_host(net::MacAddress mac, net::Ipv4Address ip,
                                   net::PacketSink& host_network) {
  const std::size_t index = hosts_.size();
  auto host = std::make_unique<HostState>();
  host->index = index;
  host->mac = mac;
  host->ip = ip;
  host->downlink = std::make_unique<net::Wire>(
      sim_, host_network, params_.host_link_latency, params_.host_link_gbps);
  host->uplink = std::make_unique<HostUplink>(*this, index);
  hosts_.push_back(std::move(host));
  return index;
}

net::PacketSink& TorScheduler::host_uplink(std::size_t host) {
  return *hosts_.at(host)->uplink;
}

void TorScheduler::attach(net::EthernetSwitch& client_network,
                          sim::Duration latency, double gbps) {
  client_network.attach(vip_mac(), *this, latency, gbps);
  client_network_ = &client_network;
  // The health tick exists only with failover on, so the disabled event
  // schedule — and therefore every disabled-run trace — is untouched. The
  // one-picosecond phase shift keeps the whole tick chain (self-rescheduled
  // at now + probe_interval, so the phase persists) off every round-number
  // instant in a run — measurement boundaries, fault injections, other
  // interval lattices. A tick that shares an instant with another event has
  // shard-count-dependent order (shard.h's mailbox contract assumes such
  // ties are measure-zero), and a probe decision flipping across the
  // measure-end snapshot is exactly the kind of tie a round lattice makes
  // measure-positive.
  if (params_.failover) {
    sim_.after(params_.probe_interval + sim::Duration::picos(1),
               [this]() { health_tick(); });
  }
}

net::MacAddress TorScheduler::vip_mac() const {
  return net::MacAddress::from_index(kVipIndex);
}

net::Ipv4Address TorScheduler::vip_ip() const {
  return net::Ipv4Address::from_index(kVipIndex);
}

void TorScheduler::set_oracle(std::function<double(std::size_t)> oracle) {
  oracle_ = std::move(oracle);
}

void TorScheduler::mark_host_reset(std::size_t host) {
  HostState& state = *hosts_.at(host);
  state.reset_at = sim_.now();
  state.sojourn_seeded = false;
  state.sojourn_ewma_us = 0.0;
  state.depth_seeded = false;
  state.queue_depth = 0;
  ++state.counters.resets;
}

void TorScheduler::deliver(net::Packet packet) {
  const auto now = sim_.now();
  sweep_affinity(now);
  sweep_completed(now);
  const auto view = net::parse_udp_datagram(packet);
  if (!view) {
    ++stats_.malformed_dropped;
    return;
  }
  const auto type = proto::peek_type(view->payload);
  if (type != proto::MessageType::kRequest || hosts_.empty()) {
    ++stats_.malformed_dropped;
    return;
  }
  const auto request = proto::RequestMessage::parse(view->payload);
  if (!request) {
    ++stats_.malformed_dropped;
    return;
  }
  steer(std::move(packet), *view, request->request_id, request->tenant);
}

RackTenantStats& TorScheduler::tenant_row(std::vector<RackTenantStats>& rows,
                                          std::uint16_t id) {
  for (RackTenantStats& row : rows) {
    if (row.tenant == id) return row;
  }
  rows.push_back(RackTenantStats{id, 0, 0, 0, 0});
  return rows.back();
}

void TorScheduler::steer(net::Packet packet, const net::UdpDatagramView& view,
                         std::uint64_t request_id, std::uint16_t tenant) {
  const auto now = sim_.now();
  std::size_t target;
  if (const auto it = affinity_.find(request_id); it != affinity_.end()) {
    // Retransmit of an in-flight request: keep it on the host that holds
    // its execution/dedup state, regardless of current load. (With failover
    // on, draining already re-pinned entries off any ejected host.)
    target = it->second.host;
    it->second.last_sent = now;
    affinity_log_.push_back({request_id, now});
    ++stats_.affinity_hits;
  } else {
    target = pick_host(view.five_tuple());
    if (params_.failover && dead_now(*hosts_[target], now)) {
      // Uninformed policies (and a both-candidates-dead p2c draw) can still
      // land on an ejected host; with failover on, deterministically divert
      // to the best alive host instead of feeding a black hole.
      target = best_alive(now, target, hosts_.size());
    }
    Affinity pinned;
    pinned.host = static_cast<std::uint32_t>(target);
    pinned.tenant = tenant;
    pinned.first_sent = now;
    pinned.last_sent = now;
    const auto entry_it =
        affinity_.emplace(request_id, std::move(pinned)).first;
    affinity_log_.push_back({request_id, now});
    HostState& host = *hosts_[target];
    if (host.outstanding == 0) host.outstanding_since = now;
    ++host.outstanding;
    if (tenant != 0) {
      ++tenant_row(host.counters.tenants, tenant).outstanding;
    }
    if (dedupe_active()) {
      std::unique_ptr<StoredRequest> stored;
      if (spare_stored_.empty()) {
        stored = std::make_unique<StoredRequest>();
      } else {
        stored = std::move(spare_stored_.back());
        spare_stored_.pop_back();
      }
      stored->src_mac = view.eth.src;
      stored->src_ip = view.ip.src;
      stored->src_port = view.udp.src_port;
      stored->dst_port = view.udp.dst_port;
      stored->payload.assign(view.payload.begin(), view.payload.end());
      entry_it->second.stored = std::move(stored);
    }
    if (params_.hedge) {
      sim_.after(params_.hedge_after,
                 [this, request_id]() { maybe_hedge(request_id); });
    }
  }
  HostState& host = *hosts_[target];
  ++host.counters.requests;
  if (tenant != 0) ++tenant_row(host.counters.tenants, tenant).requests;
  ++stats_.requests_forwarded;

  // Readdress to the host's ingress endpoint; the client's source fields
  // ride through so the server replies straight toward the client.
  net::DatagramAddress address;
  address.src_mac = view.eth.src;
  address.dst_mac = host.mac;
  address.src_ip = view.ip.src;
  address.dst_ip = host.ip;
  address.src_port = view.udp.src_port;
  address.dst_port = view.udp.dst_port;
  net::Packet steered = net::make_udp_datagram(address, view.payload);
  (void)packet;  // original frame retired; `steered` replaces it

  net::Wire& downlink = *host.downlink;
  if (params_.decision_latency.is_zero()) {
    downlink.transmit(std::move(steered));
    return;
  }
  sim_.after(params_.decision_latency,
             [&downlink, p = std::move(steered)]() mutable {
               downlink.transmit(std::move(p));
             });
}

std::size_t TorScheduler::pick_host(const net::FiveTuple& flow) {
  const std::size_t n = hosts_.size();
  if (n == 1) return 0;
  const auto now = sim_.now();
  switch (params_.policy) {
    case TorPolicy::kFlowHash:
      return std::hash<net::FiveTuple>{}(flow) % n;
    case TorPolicy::kRoundRobin:
      return static_cast<std::size_t>(round_robin_next_++ % n);
    case TorPolicy::kRandom:
      return static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
    case TorPolicy::kPowerOfTwo: {
      auto a = static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
      auto b = static_cast<std::size_t>(rng_.uniform_int(0, n - 2));
      if (b >= a) ++b;
      bool a_fresh = false;
      bool b_fresh = false;
      const double score_a = score(*hosts_[a], now, a_fresh);
      const double score_b = score(*hosts_[b], now, b_fresh);
      if (a_fresh && b_fresh) {
        ++stats_.informed_decisions;
      } else {
        ++stats_.stale_decisions;
      }
      if (score_a == score_b) return std::min(a, b);
      return score_a < score_b ? a : b;
    }
    case TorPolicy::kJsqIdeal: {
      std::size_t best = 0;
      double best_score = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double host_score =
            oracle_ ? oracle_(i)
                    : static_cast<double>(hosts_[i]->outstanding);
        if (host_score < best_score) {
          best_score = host_score;
          best = i;
        }
      }
      return best;
    }
  }
  return 0;
}

double TorScheduler::score(HostState& host, sim::TimePoint now, bool& fresh) {
  double value = static_cast<double>(host.outstanding);
  if (dead_now(host, now)) {
    fresh = false;
    return kDeadPenalty + value;
  }
  if ((params_.failover || params_.hedge) && host.outstanding > 0) {
    // Suspect, not yet condemned: silent-with-work past the probe trigger
    // — or past the hedge trigger when hedging is armed, since a host
    // whose requests are being duplicated away should not be handed new
    // ones to chase them. The penalty lifts the instant any uplink frame
    // (usually the probe ack) lands and refreshes last_heard.
    auto suspect_after = params_.probe_interval;
    if (params_.hedge && params_.hedge_after < suspect_after) {
      suspect_after = params_.hedge_after;
    }
    if (now - std::max(host.last_heard, host.outstanding_since) >
        suspect_after) {
      fresh = false;
      return kSuspectPenalty + value;
    }
  }
  const bool seeded = host.depth_seeded || host.sojourn_seeded;
  fresh = seeded && (now - host.feedback_at) <= params_.feedback_stale_after;
  if (fresh) {
    if (host.depth_seeded) value += static_cast<double>(host.queue_depth);
    if (host.sojourn_seeded) {
      value += host.sojourn_ewma_us * params_.sojourn_weight_per_us;
    }
  }
  return value;
}

bool TorScheduler::dead_now(HostState& host, sim::TimePoint now) {
  if (host.dead) return true;
  if (host.outstanding == 0) return false;
  const auto reference = std::max(host.last_heard, host.outstanding_since);
  if (now - reference <= params_.host_timeout) return false;
  declare_dead(host, now);
  return true;
}

void TorScheduler::declare_dead(HostState& host, sim::TimePoint now) {
  host.dead = true;
  ++host.counters.deaths;
  // Death verdict == feedback epoch boundary: estimates accumulated from the
  // previous incarnation are cleared, and any sample still in flight from a
  // request forwarded before this instant will be discarded on arrival
  // (fold_feedback's gate) rather than resurrecting the dead EWMA.
  host.reset_at = now;
  host.sojourn_seeded = false;
  host.sojourn_ewma_us = 0.0;
  host.depth_seeded = false;
  host.queue_depth = 0;
  if (params_.failover) drain_host(host, now);
}

std::size_t TorScheduler::best_alive(sim::TimePoint now, std::size_t fallback,
                                     std::size_t exclude) {
  std::size_t best = fallback;
  double best_score = std::numeric_limits<double>::infinity();
  bool found = false;
  for (const auto& candidate : hosts_) {
    if (candidate->index == exclude) continue;
    if (dead_now(*candidate, now)) continue;
    bool fresh = false;
    const double candidate_score = score(*candidate, now, fresh);
    if (!found || candidate_score < best_score) {
      found = true;
      best_score = candidate_score;
      best = candidate->index;
    }
  }
  return best;
}

void TorScheduler::drain_host(HostState& host, sim::TimePoint now) {
  if (hosts_.size() < 2) return;
  // Walk the insertion-ordered log rather than the affinity map so the
  // re-steer order — and therefore the downlink transmit trace — is the
  // same on every replay. A request already re-pinned by an earlier log
  // entry no longer matches `host` and is skipped naturally.
  const std::size_t log_size = affinity_log_.size();
  for (std::size_t i = 0; i < log_size; ++i) {
    const std::uint64_t request_id = affinity_log_[i].first;
    const auto it = affinity_.find(request_id);
    if (it == affinity_.end()) continue;
    Affinity& entry = it->second;
    if (entry.hedge_host == host.index) {
      // The hedge copy died with the host; the primary is still in flight.
      entry.hedge_host = kNoHost;
      if (host.outstanding > 0) --host.outstanding;
    }
    if (entry.host != host.index || !entry.stored) continue;
    const std::size_t target = best_alive(now, host.index, hosts_.size());
    if (target == host.index) return;  // nothing alive; leave entries pinned
    HostState& dst = *hosts_[target];
    if (host.outstanding > 0) --host.outstanding;
    if (dst.outstanding == 0) dst.outstanding_since = now;
    ++dst.outstanding;
    if (entry.tenant != 0) {
      RackTenantStats& from_row =
          tenant_row(host.counters.tenants, entry.tenant);
      if (from_row.outstanding > 0) --from_row.outstanding;
      ++tenant_row(dst.counters.tenants, entry.tenant).outstanding;
    }
    entry.host = static_cast<std::uint32_t>(target);
    entry.last_sent = now;
    ++dst.counters.requests;
    transmit_stored(*entry.stored, dst);
    ++stats_.requests_resteered;
  }
}

void TorScheduler::transmit_stored(const StoredRequest& stored,
                                   HostState& target) {
  net::DatagramAddress address;
  address.src_mac = stored.src_mac;
  address.dst_mac = target.mac;
  address.src_ip = stored.src_ip;
  address.dst_ip = target.ip;
  address.src_port = stored.src_port;
  address.dst_port = stored.dst_port;
  target.downlink->transmit(net::make_udp_datagram(address, stored.payload));
}

void TorScheduler::health_tick() {
  const auto now = sim_.now();
  for (const auto& host_ptr : hosts_) {
    HostState& host = *host_ptr;
    if (host.probe_outstanding &&
        now - host.probe_sent_at >= params_.probe_timeout) {
      // Probe went unanswered: the NIC path itself is gone. Same verdict
      // machinery as the silence timeout; probing continues so recovery is
      // noticed (the ack revives the host via from_host).
      host.probe_outstanding = false;
      if (!host.dead) {
        declare_dead(host, now);
        ++stats_.probe_deaths;
      }
    }
    if (!host.probe_outstanding &&
        now - host.last_heard >= params_.probe_interval) {
      send_probe(host, now);
    }
  }
  sim_.after(params_.probe_interval, [this]() { health_tick(); });
}

void TorScheduler::send_probe(HostState& host, sim::TimePoint now) {
  proto::ProbeMessage probe;
  probe.seq = ++host.probe_seq;
  probe.host = static_cast<std::uint32_t>(host.index);
  net::DatagramAddress address;
  address.src_mac = vip_mac();
  address.src_ip = vip_ip();
  address.dst_mac = probe_mac();
  address.dst_ip = probe_ip();
  address.src_port = kControlPort;
  address.dst_port = kControlPort;
  auto& scratch = proto::serialization_scratch();
  probe.serialize_into(proto::MessageType::kHealthProbe, scratch);
  host.downlink->transmit(net::make_udp_datagram(address, scratch));
  host.probe_outstanding = true;
  host.probe_sent_at = now;
  ++stats_.probes_sent;
}

void TorScheduler::maybe_hedge(std::uint64_t request_id) {
  const auto it = affinity_.find(request_id);
  if (it == affinity_.end()) return;  // answered before the hedge deadline
  Affinity& entry = it->second;
  if (entry.hedge_host != kNoHost || !entry.stored) return;
  const auto now = sim_.now();
  // Informed hedging: duplicate only when the primary has been silent for
  // the entire hedge window. A host that produced any uplink frame since
  // the request went unanswered is alive and merely queueing — duplicating
  // its work would amplify load exactly when the rack has the least
  // headroom (the classic hedging failure mode at high utilization). A
  // silent host is the detection gap hedging exists to cover: the copy goes
  // out hedge_after into the silence, well before the probe machinery can
  // reach its death verdict. When the primary is alive, re-arm the check
  // for the earliest time the silence condition could hold — so a request
  // steered just before a crash still hedges once the silence accrues,
  // instead of being stuck behind the one-shot timer it armed pre-crash.
  // The extra picosecond keeps the recheck off the uplink arrival lattice:
  // with lattice-valued service times, last_heard + hedge_after often *is*
  // a future frame-arrival instant, and a self-event tied with a cross-
  // shard delivery has shard-count-dependent order (shard.h assumes such
  // ties are measure-zero). One tick later, the race resolves the same way
  // under every shard count: frame landed → still silent? defers; else
  // hedges.
  HostState& primary = *hosts_[entry.host];
  if (!primary.dead && primary.last_heard + params_.hedge_after > now) {
    sim_.at(primary.last_heard + params_.hedge_after + sim::Duration::picos(1),
            [this, request_id]() { maybe_hedge(request_id); });
    return;
  }
  const std::size_t backup = best_alive(now, entry.host, entry.host);
  if (backup == entry.host) return;  // no alternative host alive
  HostState& dst = *hosts_[backup];
  entry.hedge_host = static_cast<std::uint32_t>(backup);
  entry.last_sent = now;
  if (dst.outstanding == 0) dst.outstanding_since = now;
  ++dst.outstanding;
  transmit_stored(*entry.stored, dst);
  ++stats_.hedges_sent;
}

void TorScheduler::send_cancel(HostState& host, std::uint64_t request_id,
                               std::uint16_t dst_port) {
  proto::CancelMessage cancel;
  cancel.request_id = request_id;
  net::DatagramAddress address;
  address.src_mac = vip_mac();
  address.src_ip = vip_ip();
  address.dst_mac = host.mac;
  address.dst_ip = host.ip;
  address.src_port = kControlPort;
  address.dst_port = dst_port;
  auto& scratch = proto::serialization_scratch();
  cancel.serialize_into(scratch);
  host.downlink->transmit(net::make_udp_datagram(address, scratch));
  ++stats_.cancels_sent;
}

void TorScheduler::fold_feedback(HostState& host, const Affinity& entry,
                                 std::uint32_t depth, bool has_sojourn,
                                 std::uint64_t sojourn_ps) {
  if (entry.last_sent < host.reset_at) {
    ++host.counters.feedback_discarded;
    return;
  }
  const auto now = sim_.now();
  host.queue_depth = depth;
  host.depth_seeded = true;
  if (has_sojourn) {
    const double sample_us =
        static_cast<double>(sojourn_ps) / 1e6;  // ps → µs
    host.sojourn_ewma_us =
        host.sojourn_seeded
            ? params_.sojourn_alpha * sample_us +
                  (1.0 - params_.sojourn_alpha) * host.sojourn_ewma_us
            : sample_us;
    host.sojourn_seeded = true;
  }
  host.feedback_at = now;
  ++stats_.feedback_samples;
}

void TorScheduler::reclaim_slots(const Affinity& entry) {
  HostState& primary = *hosts_[entry.host];
  if (primary.outstanding > 0) --primary.outstanding;
  if (entry.hedge_host != kNoHost) {
    HostState& backup = *hosts_[entry.hedge_host];
    if (backup.outstanding > 0) --backup.outstanding;
  }
  if (entry.tenant != 0) {
    // Tenant outstanding is tracked on the primary leg only; the hedge copy
    // never incremented a tenant row, so there is nothing to undo there.
    RackTenantStats& row = tenant_row(primary.counters.tenants, entry.tenant);
    if (row.outstanding > 0) --row.outstanding;
  }
}

void TorScheduler::complete(std::uint64_t request_id) {
  const auto it = affinity_.find(request_id);
  if (it == affinity_.end()) return;
  reclaim_slots(it->second);
  if (dedupe_active()) {
    const auto now = sim_.now();
    if (completed_.emplace(request_id, now).second) {
      completed_log_.push_back({request_id, now});
    }
  }
  erase_affinity(it);
}

void TorScheduler::erase_affinity(
    std::pmr::unordered_map<std::uint64_t, Affinity>::iterator it) {
  if (it->second.stored) spare_stored_.push_back(std::move(it->second.stored));
  affinity_.erase(it);
}

void TorScheduler::from_host(std::size_t index, net::Packet packet) {
  HostState& host = *hosts_[index];
  const auto now = sim_.now();
  host.last_heard = now;
  if (host.dead) {
    // Heard from again: the silence verdict lifts, but the feedback epoch
    // set at the verdict stays — only post-verdict samples are trusted.
    host.dead = false;
    ++host.counters.revivals;
  }

  bool forward = true;
  const auto view = net::parse_udp_datagram(packet);
  if (view) {
    const auto type = proto::peek_type(view->payload);
    if (type == proto::MessageType::kResponse) {
      if (const auto response = proto::ResponseMessage::parse(view->payload)) {
        const std::uint64_t id = response->request_id;
        const auto it = affinity_.find(id);
        const bool mine =
            it != affinity_.end() &&
            (it->second.host == index || it->second.hedge_host == index);
        if (mine) {
          fold_feedback(host, it->second, response->queue_depth,
                        response->has_sojourn, response->sojourn_ps);
          ++host.counters.responses;
          if (it->second.tenant != 0) {
            ++tenant_row(host.counters.tenants, it->second.tenant).responses;
          }
          if (it->second.hedge_host != kNoHost) {
            const bool hedge_won = it->second.hedge_host == index;
            if (hedge_won) ++stats_.hedge_wins;
            const std::uint32_t loser =
                hedge_won ? it->second.host : it->second.hedge_host;
            if (params_.hedge_cancel && it->second.stored) {
              send_cancel(*hosts_[loser], id, it->second.stored->dst_port);
            }
          }
          complete(id);
        } else if (dedupe_active() &&
                   (it != affinity_.end() || completed_.count(id) != 0)) {
          // Duplicate leg of a hedged/re-steered request that was already
          // answered: the client saw the first copy, so this one is dropped
          // at the ToR rather than double-delivered.
          ++stats_.duplicates_suppressed;
          forward = false;
        } else {
          // Unknown (likely affinity-expired): still forwarded so an admitted
          // request's response always reaches the client — conservation.
          ++stats_.unknown_responses;
        }
      }
      if (forward) ++stats_.responses_forwarded;
    } else if (type == proto::MessageType::kReject) {
      if (const auto reject = proto::RejectMessage::parse(view->payload)) {
        const std::uint64_t id = reject->request_id;
        const auto it = affinity_.find(id);
        const bool mine =
            it != affinity_.end() &&
            (it->second.host == index || it->second.hedge_host == index);
        if (mine) {
          fold_feedback(host, it->second, reject->queue_depth,
                        /*has_sojourn=*/false, 0);
          ++host.counters.rejects;
          if (it->second.tenant != 0) {
            ++tenant_row(host.counters.tenants, it->second.tenant).rejects;
          }
          // A reject resolves the pair too: the client's retry machinery owns
          // what happens next, so the other leg is cancelled rather than kept
          // racing a request the client already considers failed.
          if (it->second.hedge_host != kNoHost) {
            const std::uint32_t loser = it->second.hedge_host == index
                                            ? it->second.host
                                            : it->second.hedge_host;
            if (params_.hedge_cancel && it->second.stored) {
              send_cancel(*hosts_[loser], id, it->second.stored->dst_port);
            }
          }
          complete(id);
        } else if (dedupe_active() &&
                   (it != affinity_.end() || completed_.count(id) != 0)) {
          ++stats_.duplicates_suppressed;
          forward = false;
        } else {
          ++stats_.unknown_responses;
        }
      }
      if (forward) ++stats_.rejects_forwarded;
    } else if (type == proto::MessageType::kHealthProbeAck) {
      if (const auto ack = proto::ProbeMessage::parse(
              view->payload, proto::MessageType::kHealthProbeAck);
          ack && ack->host == index) {
        host.probe_outstanding = false;
        ++stats_.probe_acks;
      }
      // Control traffic terminates at the ToR either way; forwarding it to
      // the client VIP would only count as a malformed frame there.
      forward = false;
    } else {
      ++stats_.other_forwarded;
    }
  } else {
    ++stats_.other_forwarded;
  }

  if (forward && client_network_ != nullptr) {
    client_network_->ingress().deliver(std::move(packet));
  }
}

void TorScheduler::sweep_affinity(sim::TimePoint now) {
  while (!affinity_log_.empty()) {
    const auto [request_id, logged] = affinity_log_.front();
    if (logged + params_.affinity_ttl > now) break;
    affinity_log_.pop_front();
    const auto it = affinity_.find(request_id);
    if (it == affinity_.end()) continue;  // already completed
    if (it->second.last_sent != logged) {
      // Touched since this log entry was written; re-arm at the new time.
      affinity_log_.push_back({request_id, it->second.last_sent});
      continue;
    }
    // Expired without an answer: slots come back but the id is NOT recorded
    // in completed_ — a late response must still be forwarded to the client.
    reclaim_slots(it->second);
    erase_affinity(it);
    ++stats_.affinity_expired;
  }
}

void TorScheduler::sweep_completed(sim::TimePoint now) {
  while (!completed_log_.empty()) {
    const auto [request_id, logged] = completed_log_.front();
    if (logged + params_.affinity_ttl > now) break;
    completed_log_.pop_front();
    const auto it = completed_.find(request_id);
    if (it != completed_.end() && it->second == logged) completed_.erase(it);
  }
}

RackStats TorScheduler::stats() const {
  RackStats out = stats_;
  out.hosts.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    RackHostStats row = host->counters;
    row.outstanding = host->outstanding;
    row.sojourn_ewma_us = host->sojourn_seeded ? host->sojourn_ewma_us : 0.0;
    row.queue_depth = host->depth_seeded ? host->queue_depth : 0;
    out.feedback_discarded_dead += row.feedback_discarded;
    for (const RackTenantStats& slice : row.tenants) {
      RackTenantStats& total = tenant_row(out.tenants, slice.tenant);
      total.requests += slice.requests;
      total.responses += slice.responses;
      total.rejects += slice.rejects;
      total.outstanding += slice.outstanding;
    }
    out.hosts.push_back(row);
  }
  return out;
}

std::uint64_t TorScheduler::outstanding(std::size_t host) const {
  return hosts_.at(host)->outstanding;
}

}  // namespace nicsched::rack
