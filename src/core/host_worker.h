// HostWorker: the host worker run loop shared by every family whose central
// dispatcher hands requests to polling worker cores and preempts them with
// an interrupt — the ideal NIC (CXL writes), rain (RDMA writes) and vanilla
// Shinjuku (cache-line IPC). The families differ only in transport, so the
// loop is written once and each family supplies three things (DESIGN §9):
//
//   * fetch    — take the next assignment off its transport (pop a channel,
//                or poll, parse and dedupe a run-queue entry);
//   * costs    — the per-phase core costs and the payload's cache placement
//                (Config), plus how many assignments queue behind the one
//                just fetched (queued_behind);
//   * notify   — report started/completed/preempted back to the dispatcher
//                (a cache-line IPC note, or a CQ entry over CXL or RDMA).
//
// The loop itself: pop → prologue (pop cost + first payload touch + context
// restore for a resumed request) → run_preemptible → either respond to the
// client or, on interrupt, rewrite the descriptor's remaining work and hand
// it back. Spans go on the family's `span_lane`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/model_params.h"
#include "core/server.h"
#include "hw/cpu_core.h"
#include "hw/ddio.h"
#include "hw/interrupt.h"
#include "net/nic.h"
#include "proto/messages.h"
#include "sim/ring.h"
#include "sim/simulator.h"

namespace nicsched::core {

class HostWorker {
 public:
  enum class Note { kStarted, kCompleted, kPreempted };

  struct Config {
    std::string name;             // the core's name
    std::size_t id = 0;           // trace component "worker<id>"
    std::uint32_t span_lane = 0;  // lane of the service/requeue/response spans
    /// Dispatcher→core interrupt delivery latency.
    sim::Duration interrupt_latency;
    /// Prologue cost before the payload touch: descriptor pop plus, where
    /// the family announces it, the "started" note.
    sim::Duration start_cost;
    /// The completed/preempted note, added to the response-build and
    /// context-save costs.
    sim::Duration note_cost;
    hw::PlacementPolicy placement = hw::PlacementPolicy::kDdioLlc;
    /// Responses leave through `reply_via` from UDP port `reply_port`.
    net::NicInterface* reply_via = nullptr;
    std::uint16_t reply_port = 0;
    /// Echo the dispatch-queue sojourn in every response (DESIGN §12).
    bool load_feedback = false;
  };

  HostWorker(sim::Simulator& sim, const ModelParams& params, Config config);
  virtual ~HostWorker() = default;

  HostWorker(const HostWorker&) = delete;
  HostWorker& operator=(const HostWorker&) = delete;

  /// Sends the dispatcher's preempt interrupt down this core's line.
  void interrupt();

  /// Load feedback: the dispatcher pairs each assignment it sends with the
  /// request's dispatch-queue sojourn, in transport order; the worker pops
  /// the matching sample when it starts the request.
  void push_pending_sojourn(sim::Duration sojourn) {
    pending_sojourns_.push_back(sojourn);
  }

  hw::CpuCore& core() { return core_; }
  WorkerCounters counters() const;

 protected:
  /// The transport calls this when an assignment becomes visible.
  void wake() {
    if (idle_) start_next();
  }

  /// Takes the next assignment into `out`; false when none is visible.
  virtual bool fetch(proto::RequestDescriptor& out) = 0;
  /// Assignments queued behind the one just fetched; with the placement it
  /// decides at which cache level the payload is first touched.
  virtual std::uint32_t queued_behind() const = 0;
  /// Reports a transition; its cost was already charged to this core.
  virtual void notify(Note note,
                      const proto::RequestDescriptor& descriptor) = 0;

  sim::Simulator& sim_;

 private:
  void start_next();
  void begin_service();
  void on_complete();
  void respond();
  void on_preempted(sim::Duration remaining);

  const ModelParams& params_;
  Config config_;
  hw::CpuCore core_;
  hw::InterruptLine interrupt_line_;
  bool idle_ = true;
  /// The request being started, run, or answered/handed back; the core
  /// serializes these phases, so continuations capture only `this`.
  proto::RequestDescriptor current_;
  sim::Ring<sim::Duration> pending_sojourns_;
  sim::Duration current_sojourn_;
  std::uint64_t preemptions_ = 0;
  std::uint64_t responses_sent_ = 0;
  hw::DdioStats ddio_;
};

}  // namespace nicsched::core
