// Multi-tenant serving at the NIC (DESIGN §13).
//
// Millions of users are not one Poisson stream: production serving multiplexes
// many tenants — each with its own service distribution, offered load, SLO
// class, and share weight — onto one NIC dispatcher. This layer adds:
//
//  * `TenantSpec` — the canonical, client-facing description of one tenant's
//    offered load (the `ExperimentConfig.with_tenants` API). The legacy
//    single-stream knobs survive as a one-tenant shim built from them.
//  * `TenantParams` — the server-facing dispatch/admission config derived
//    from the specs: id → weight → SLO class, carried to every family by
//    `HostSpec`.
//  * `TenantDispatchQueue` — strict priority across SLO classes, deficit
//    round robin (DRR) between the tenants inside a class. Deficits are in
//    picoseconds of *work*, so a weight buys a share of worker time, not a
//    share of request count (the quota model from SNIPPETS.md §2: a weight
//    is a number of service-time-equivalents per round).
//  * `TenantAdmission` — per-tenant EWMA admission gates composing with the
//    PR 5 overload controller: a saturating tenant's queueing-delay samples
//    close *its* gate without poisoning its neighbours' estimates.
//
// Everything defaults OFF. With no tenant mix configured the servers keep
// their classic TaskQueue/global-gate path, clients emit untenanted frames,
// and runs are bit-identical to pre-tenant builds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/id_set.h"
#include "sim/ring.h"
#include "sim/time.h"
#include "workload/distribution.h"

namespace nicsched::tenant {

/// Strict-priority service classes. Lower value = served first; within one
/// class tenants share by DRR weight.
enum class SloClass : std::uint8_t {
  kLatencyCritical = 0,
  kStandard = 1,
  kBestEffort = 2,
};
inline constexpr std::size_t kSloClassCount = 3;

const char* to_string(SloClass slo);
/// Accepts "lc"/"latency_critical", "std"/"standard", "be"/"best_effort".
std::optional<SloClass> slo_class_from_string(std::string_view name);

/// One tenant's offered load, as the workload layer sees it. The canonical
/// way to describe load to `run_experiment`; the single-stream
/// `ExperimentConfig` knobs are a one-tenant shim over this.
struct TenantSpec {
  /// Wire tag. 0 is "untenanted": frames stay version 1 and the tenant
  /// layer stays off — the one-tenant shim uses it for bit-identity.
  /// Real mixes should use ids >= 1.
  std::uint16_t id = 0;
  /// Label for tables/JSON; empty = "t<id>".
  std::string name;
  /// DRR share (of worker time) within this tenant's SLO class.
  double weight = 1.0;
  SloClass slo = SloClass::kStandard;
  /// Offered load. 0 = inherit the experiment's `offered_rps` (split across
  /// env-declared tenants by weight).
  double rate_rps = 0.0;
  /// Service-time distribution; null = inherit the experiment's.
  std::shared_ptr<workload::ServiceDistribution> service;
  /// Per-request completion deadline; zero = inherit the overload params'
  /// deadline when overload control is on, else none.
  sim::Duration deadline{};

  // Fluent setters, mirroring ExperimentConfig's builder style.
  TenantSpec& named(std::string label) {
    name = std::move(label);
    return *this;
  }
  TenantSpec& weighted(double share) {
    weight = share;
    return *this;
  }
  TenantSpec& slo_class(SloClass value) {
    slo = value;
    return *this;
  }
  TenantSpec& load(double rps) {
    rate_rps = rps;
    return *this;
  }
  TenantSpec& with_service(
      std::shared_ptr<workload::ServiceDistribution> distribution) {
    service = std::move(distribution);
    return *this;
  }
  TenantSpec& fixed(sim::Duration work) {
    return with_service(std::make_shared<workload::FixedDistribution>(work));
  }
  TenantSpec& bimodal(sim::Duration common, sim::Duration rare,
                      double rare_fraction) {
    return with_service(std::make_shared<workload::BimodalDistribution>(
        common, rare, rare_fraction));
  }
  TenantSpec& with_deadline(sim::Duration value) {
    deadline = value;
    return *this;
  }

  std::string label() const {
    return name.empty() ? "t" + std::to_string(id) : name;
  }
};

/// Convenience root for the fluent spec: `make_tenant(1).weighted(4)...`.
inline TenantSpec make_tenant(std::uint16_t id) {
  TenantSpec spec;
  spec.id = id;
  return spec;
}

/// Server-side view of one tenant: everything dispatch needs, nothing the
/// workload layer owns.
struct TenantClass {
  std::uint16_t id = 0;
  double weight = 1.0;
  SloClass slo = SloClass::kStandard;

  bool operator==(const TenantClass&) const = default;
};

/// Per-server tenant dispatch/admission configuration. Travels to every
/// family on `HostSpec`.
struct TenantParams {
  /// Master switch. False = the server keeps its classic single-queue path
  /// bit for bit; no per-tenant state is even allocated.
  bool enabled = false;
  /// True: strict SLO-class priority + DRR between per-tenant queues.
  /// False: one FIFO across all tenants (the interference baseline the
  /// isolation bench compares against), still tenant-tagged for stats.
  bool fair_dispatch = true;
  /// DRR credit granted per unit weight per round, in service time.
  sim::Duration quantum = sim::Duration::micros(5);
  std::vector<TenantClass> tenants;

  /// Slot for a wire tenant id; unknown ids (including untagged 0 when no
  /// tenant declares it) ride slot 0 so nothing is ever dropped for lack of
  /// a matching spec.
  std::size_t index_of(std::uint16_t id) const {
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i].id == id) return i;
    }
    return 0;
  }

  static TenantParams from_specs(const std::vector<TenantSpec>& specs);

  bool operator==(const TenantParams&) const = default;
};

/// Per-tenant counters every server reports via `ServerStats::tenants` and
/// the exp JSON/CSV sinks. The overload sub-struct carries this tenant's
/// admission/shedding outcomes (k_* stay zero: adaptive-K is per worker,
/// not per tenant).
struct TenantStats {
  std::uint16_t id = 0;
  std::uint64_t enqueued = 0;    ///< admitted into the dispatch queue
  std::uint64_t dispatched = 0;  ///< popped for worker assignment
  std::size_t max_depth = 0;     ///< this tenant's queue high-water mark
  overload::OverloadStats overload;

  bool operator==(const TenantStats&) const = default;
};

/// Sums rhs into lhs element-wise (rack mode aggregates per-host rows).
void accumulate(std::vector<TenantStats>& lhs,
                const std::vector<TenantStats>& rhs);

/// Parses the compact `NICSCHED_TENANTS` spec string:
///   id:weight:class[:rate_rps][,id:weight:class[:rate_rps]...]
/// e.g. "1:4:lc,2:1:be" — class as per slo_class_from_string. Service
/// distributions cannot be expressed here; callers fill them from the
/// experiment's legacy service knob. Returns nullopt on malformed input.
std::optional<std::vector<TenantSpec>> parse_tenant_list(std::string_view text);

/// `parse_tenant_list` applied to NICSCHED_TENANTS; empty when unset or
/// malformed (malformed input also warns on stderr — a typo'd override must
/// not silently vanish).
std::vector<TenantSpec> tenants_from_env();

/// The NIC dispatcher's multi-tenant queue: strict priority across SLO
/// classes, work-cost DRR between tenants within a class. Drop-in for the
/// TaskQueue role in the dispatch loop (push_new / push_preempted / pop with
/// shed-at-pop), with the tenant slot of every popped entry reported so the
/// caller can feed per-tenant admission EWMAs.
class TenantDispatchQueue {
 public:
  explicit TenantDispatchQueue(const TenantParams& params);

  void push_new(proto::RequestDescriptor descriptor, sim::TimePoint now);
  void push_preempted(proto::RequestDescriptor descriptor, sim::TimePoint now);

  struct Popped {
    proto::RequestDescriptor descriptor;
    std::size_t tenant_index = 0;
    /// Time the entry waited in the queue (admission EWMA feed).
    sim::Duration queue_delay{};
  };
  /// Next descriptor under the dispatch policy; expired entries are shed on
  /// the way (counted per tenant) when shedding is enabled.
  std::optional<Popped> pop(sim::TimePoint now);

  void set_shed_expired(bool on) { shed_expired_ = on; }

  /// Lazy cancel (DESIGN §16): the next pop of this id is dropped instead
  /// of occupying a worker, as in TaskQueue::cancel; a mark for an id that
  /// is not queued waits for its next push.
  void cancel(std::uint64_t request_id) { cancelled_ids_.insert(request_id); }
  std::uint64_t cancelled_total() const { return cancelled_total_; }

  bool empty() const { return size_ == 0; }
  std::size_t depth() const { return size_; }
  std::size_t depth_of(std::size_t index) const {
    return lanes_[index].entries.size();
  }
  std::size_t index_of(std::uint16_t id) const { return params_.index_of(id); }
  std::size_t tenant_count() const { return lanes_.size(); }

  /// Per-tenant enqueued/dispatched/shed/max-depth counters, slot-aligned
  /// with `TenantParams::tenants`.
  const std::vector<TenantStats>& stats() const { return stats_; }
  std::uint64_t shed_total() const { return shed_total_; }
  /// Global (all-tenant) backlog high-water mark, the ServerStats
  /// `queue_max_depth` analogue.
  std::size_t max_depth() const { return max_depth_; }

 private:
  struct Entry {
    proto::RequestDescriptor descriptor;
    sim::TimePoint enqueued_at;
  };
  struct Lane {
    sim::Ring<Entry> entries;
    /// DRR credit in picoseconds of work.
    double deficit_ps = 0.0;
  };

  void enqueue(std::size_t index, Entry entry);
  bool expired(const proto::RequestDescriptor& descriptor,
               sim::TimePoint now) const;
  /// Consumes a pending cancel mark for this entry, if any.
  bool consume_cancel(const proto::RequestDescriptor& descriptor);
  /// Drops expired (shedding on only) and cancelled entries from the front
  /// of `lane`.
  void shed_expired_front(std::size_t index, sim::TimePoint now);
  Popped take_front(std::size_t index);

  TenantParams params_;
  bool shed_expired_ = false;
  std::vector<Lane> lanes_;
  /// FIFO order across all tenants for `fair_dispatch == false`: slot
  /// indices in arrival order (entries still live in their lanes so the
  /// per-tenant counters stay exact).
  sim::Ring<std::size_t> fifo_order_;
  /// Tenant slots per SLO class, in spec order.
  std::array<std::vector<std::size_t>, kSloClassCount> by_class_;
  /// DRR position within each class's member list.
  std::array<std::size_t, kSloClassCount> cursor_{};
  /// Whether the cursor lane already received its quantum for the turn in
  /// progress (a turn spans multiple pop() calls while the deficit lasts).
  std::array<bool, kSloClassCount> turn_granted_{};
  std::vector<TenantStats> stats_;
  std::uint64_t shed_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  sim::IdSet cancelled_ids_;
  std::size_t size_ = 0;
  std::size_t max_depth_ = 0;
};

/// Per-tenant ingress admission: one PR 5 EWMA gate per tenant, fed by that
/// tenant's own queueing delays. Replaces the dispatcher's single global
/// gate when the tenant layer is on — under a mixed load the aggressive
/// tenant's delay samples would otherwise close the shared gate against its
/// well-behaved neighbours.
class TenantAdmission {
 public:
  TenantAdmission(const TenantParams& params,
                  const overload::OverloadParams& overload);

  /// Admit/reject a request for tenant slot `index`, judged against that
  /// tenant's own queue depth. Counts the outcome per tenant.
  bool admit(std::size_t index, std::size_t tenant_depth);
  /// Feeds one dispatch-observed queueing delay into `index`'s gate.
  void observe(std::size_t index, sim::Duration delay);

  /// Admitted/rejected per tenant slot.
  const std::vector<overload::OverloadStats>& stats() const { return stats_; }

 private:
  std::vector<overload::AdmissionController> gates_;
  std::vector<overload::OverloadStats> stats_;
};

/// Builds the `ServerStats::tenants` rows: the queue's per-tenant counters
/// merged with the admission gates' outcomes. Either source may be null
/// (e.g. run-to-completion families have gates but no central queue).
std::vector<TenantStats> assemble_stats(const TenantParams& params,
                                        const TenantDispatchQueue* queue,
                                        const TenantAdmission* admission);

}  // namespace nicsched::tenant
