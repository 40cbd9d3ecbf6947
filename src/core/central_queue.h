// The NIC dispatcher's centralized queue plus its admission gate — the one
// piece of scheduling state every centralized family (offload, rain, ideal
// NIC, and each shinjuku dispatcher group) shares.
//
// With the tenant layer off (DESIGN §13) requests wait in one TaskQueue
// under the configured policy and one AdmissionController guards ingress;
// with it on, a TenantDispatchQueue (SLO priority + DRR) and per-tenant
// gates take both roles. Overload control (DESIGN §11) adds shed-at-pop and
// feeds every pop's measured queueing delay into whichever gate is live.
// Families call this object instead of branching on the tenant switch, and
// keep only their transport and their worker placement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/server.h"
#include "core/task_queue.h"
#include "net/nic.h"
#include "overload/overload.h"
#include "proto/messages.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "tenant/tenant.h"

namespace nicsched::core {

class CentralQueue {
 public:
  CentralQueue(QueuePolicy policy, const overload::OverloadParams& overload,
               const tenant::TenantParams& tenant);

  bool empty() const;
  std::size_t depth() const;

  void push_new(proto::RequestDescriptor descriptor, sim::TimePoint now);
  void push_preempted(proto::RequestDescriptor descriptor, sim::TimePoint now);

  /// Pops the next request under the live policy, shedding expired entries
  /// when overload shedding is on. `queue_delay` receives the popped
  /// request's queueing time, which also feeds the owning admission gate.
  std::optional<proto::RequestDescriptor> pop(sim::TimePoint now,
                                              sim::Duration& queue_delay);

  /// Lazy cancel of a still-queued request (DESIGN §16).
  void cancel(std::uint64_t request_id);

  /// The ingress admission decision (DESIGN §11/§13). `depth` is the
  /// backlog the request was judged against — the central depth plus the
  /// caller's `extra_depth` (requests in flight to the queue), or its own
  /// tenant's depth with tenants on; a reject frame reports it. Always
  /// admits, counting nothing, while overload control is off.
  struct Verdict {
    bool admitted = true;
    std::size_t depth = 0;
  };
  Verdict admit(std::uint16_t tenant, std::size_t extra_depth);

  /// Adds this queue's share to a run-end snapshot: queue high-water mark
  /// (max-combined), admitted/rejected/shed/cancelled counts and tenant
  /// rows (summed), so a family with several queues calls it once each.
  void add_to(ServerStats& stats) const;
  /// Adds the live backlog, reject/shed counters and per-tenant depths.
  void add_to(ServerTelemetry& telemetry) const;

 private:
  bool overload_on_;
  tenant::TenantParams tenant_params_;
  TaskQueue queue_;
  overload::AdmissionController admission_;
  // Tenant layer (DESIGN §13): the queue is null when tenants are off, the
  // gates also when overload control is off.
  std::unique_ptr<tenant::TenantDispatchQueue> tenant_queue_;
  std::unique_ptr<tenant::TenantAdmission> tenant_admission_;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// What a dispatcher's NIC ingress stage is wired to.
struct IngressStage {
  net::NicInterface& nic;     // client frames arrive here; rejects leave here
  std::uint16_t port;         // the service's UDP port
  std::uint32_t span_lane;    // lane of the NIC-RX and first queue spans
  const char* component;      // trace component of the intake lines
  std::uint64_t& received;    // requests parsed
  std::uint64_t& malformed;   // frames dropped as unparsable or misaddressed
};

/// One client frame through a centralized dispatcher's NIC ingress: parse,
/// port check, cancel mark, admit or reject against `central` plus
/// `backlog` (requests already accepted but not yet queued there), the
/// reject frame, the NIC-RX spans, and the hand-off. A hedge cancel goes to
/// `cancel`; an admitted request's descriptor goes to `accepted`. Runs
/// inside the ingress pump's callback and schedules nothing itself.
void nic_ingress(sim::Simulator& sim, const IngressStage& stage,
                 const net::Packet& packet, CentralQueue& central,
                 std::size_t backlog,
                 const std::function<void(std::uint64_t)>& cancel,
                 const std::function<void(proto::RequestDescriptor)>& accepted);

}  // namespace nicsched::core
