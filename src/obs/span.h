// The request-lifecycle span taxonomy.
//
// Each request's life is tiled into typed spans: every span's end instant is
// the next span's begin instant, so the sum of a request's span durations
// equals its measured end-to-end latency exactly. The taxonomy is shared by
// all four server systems; run-to-completion systems simply never emit the
// dispatch-queue spans.
//
//   kClientWire     issue at the client → frame arrives at the server NIC
//   kNicRx          NIC arrival → request parsed (DMA, RX ring wait, parse)
//   kDispatchQueue  parsed/enqueued → scheduler assigns a worker
//   kDispatch       assigned → worker starts executing (the 2.56 us path in
//                   Shinjuku-Offload: D2 frame build, NIC fabric, host RX,
//                   worker pop)
//   kService        executing on a worker core
//   kRequeue        preempted → re-assigned (notification + queue wait)
//   kResponse       work complete → response observed by the client
//
// A preempted request repeats kService/kRequeue/kDispatch segments; the
// tiling property still holds across the repeats.
#pragma once

#include <cstdint>

#include "sim/simulator.h"
#include "sim/trace.h"

namespace nicsched::obs {

enum class SpanKind : std::uint16_t {
  kClientWire = 0,
  kNicRx = 1,
  kDispatchQueue = 2,
  kDispatch = 3,
  kService = 4,
  kRequeue = 5,
  kResponse = 6,
};

inline constexpr std::uint16_t kSpanKindCount = 7;

const char* to_string(SpanKind kind);

/// Emission helpers. Call sites guard on `sim.span_enabled()` themselves so
/// the disabled path is a single branch with no argument evaluation.
inline void begin_span(sim::Simulator& sim, std::uint64_t request_id,
                       SpanKind kind, std::uint32_t component = 0) {
  sim.span(request_id, static_cast<std::uint16_t>(kind), /*begin=*/true,
           component);
}

inline void end_span(sim::Simulator& sim, std::uint64_t request_id,
                     SpanKind kind, std::uint32_t component = 0) {
  sim.span(request_id, static_cast<std::uint16_t>(kind), /*begin=*/false,
           component);
}

inline void begin_span_at(sim::Simulator& sim, sim::TimePoint when,
                          std::uint64_t request_id, SpanKind kind,
                          std::uint32_t component = 0) {
  sim.span_at(when, request_id, static_cast<std::uint16_t>(kind),
              /*begin=*/true, component);
}

inline void end_span_at(sim::Simulator& sim, sim::TimePoint when,
                        std::uint64_t request_id, SpanKind kind,
                        std::uint32_t component = 0) {
  sim.span_at(when, request_id, static_cast<std::uint16_t>(kind),
              /*begin=*/false, component);
}

/// The ingress pair a server records on parsing a client request: the
/// client-wire span ends at the NIC's arrival stamp `rx` and NIC RX runs
/// from `rx` to now. The caller then begins whichever span follows.
inline void record_nic_rx(sim::Simulator& sim, sim::TimePoint rx,
                          std::uint64_t request_id,
                          std::uint32_t component = 0) {
  end_span_at(sim, rx, request_id, SpanKind::kClientWire, component);
  begin_span_at(sim, rx, request_id, SpanKind::kNicRx, component);
  end_span(sim, request_id, SpanKind::kNicRx, component);
}

}  // namespace nicsched::obs
