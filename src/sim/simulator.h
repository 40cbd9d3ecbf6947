// The discrete-event simulator driving every modelled component.
//
// A `Simulator` owns the clock and the event queue. Components hold a
// reference to it and schedule callbacks; the main loop fires events in
// timestamp order and advances the clock to each event's time. The design is
// single-threaded on purpose: determinism (same seed → bit-identical result)
// is what makes the reproduction's experiments debuggable and its tests
// meaningful.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/trace.h"

namespace nicsched::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  TimePoint now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when`. Scheduling in the past
  /// is a logic error and throws.
  EventHandle at(TimePoint when, EventFn fn) {
    if (when < now_) {
      throw std::logic_error("Simulator::at: scheduling into the past");
    }
    return queue_.schedule(when, std::move(fn));
  }

  /// Schedules `fn` to run `delay` after the current time.
  EventHandle after(Duration delay, EventFn fn) {
    if (delay.is_negative()) {
      throw std::logic_error("Simulator::after: negative delay");
    }
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the current time, after all callbacks already queued
  /// for this instant. Used to decouple call chains without advancing time.
  EventHandle defer(EventFn fn) {
    return queue_.schedule(now_, std::move(fn));
  }

  /// Runs events until the queue drains or `stop()` is called. Returns the
  /// number of events fired.
  std::uint64_t run();

  /// Runs events with timestamps <= `deadline`; the clock finishes at
  /// `deadline` even if the queue drained earlier. Returns events fired.
  std::uint64_t run_until(TimePoint deadline);

  /// Convenience: run_until(now() + span).
  std::uint64_t run_for(Duration span) { return run_until(now_ + span); }

  /// Runs events with timestamps strictly before `end`, leaving the clock at
  /// the last fired event (it does NOT fast-forward to `end`). This is the
  /// shard-window primitive of the conservative-lookahead parallel engine:
  /// cross-shard sends produced inside a window [start, end) always arrive at
  /// or after `end`, so a ShardGroup may run every shard's window
  /// concurrently and exchange mailboxes at the barrier. Returns events
  /// fired; ignores stop() semantics on entry (does not reset stopped_).
  std::uint64_t run_window(TimePoint end);

  /// Fast-forwards the clock without firing anything. Never moves backwards.
  void advance_to(TimePoint t) {
    if (t > now_) now_ = t;
  }

  /// Fires exactly one event if present. Returns false if queue is empty.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  bool stopped() const { return stopped_; }

  /// Re-arms a stopped simulator. run()/run_until() do this on entry; the
  /// ShardGroup drain loop does it explicitly because it drives shards
  /// through run_window(), which deliberately leaves stop state alone.
  void reset_stop() { stopped_ = false; }

  /// Total events fired since construction.
  std::uint64_t events_fired() const { return events_fired_; }

  EventQueue& queue() { return queue_; }

  /// The simulation-wide tracer. Disabled (and free) by default; tests and
  /// debugging tools install a sink. Components emit via
  /// `sim.trace(category, "component", "message")`.
  Tracer& tracer() { return tracer_; }

  void trace(TraceCategory category, std::string component,
             std::string message) {
    tracer_.emit(now_, category, std::move(component), std::move(message));
  }

  /// Lazy form: `format` (returning a {component, message} pair) only runs
  /// when a sink is installed. Hot paths use this so disabled tracing costs
  /// one branch, never an allocation.
  template <typename Fn>
    requires std::is_invocable_v<Fn&>
  void trace(TraceCategory category, Fn&& format) {
    tracer_.emit(now_, category, std::forward<Fn>(format));
  }

  bool span_enabled() const { return tracer_.span_enabled(); }

  /// Emits a span mark stamped with the current time.
  void span(std::uint64_t request_id, std::uint16_t kind, bool begin,
            std::uint32_t component = 0) {
    tracer_.span(SpanEvent{now_, request_id, kind, begin, component});
  }

  /// Emits a span mark with an explicit (possibly earlier) timestamp — used
  /// when a parse site learns the request id of a packet whose arrival was
  /// stamped by the NIC.
  void span_at(TimePoint when, std::uint64_t request_id, std::uint16_t kind,
               bool begin, std::uint32_t component = 0) {
    tracer_.span(SpanEvent{when, request_id, kind, begin, component});
  }

 private:
  /// Fires events in place, in order, while the next one is due at or
  /// before `last` and stop() has not been called. Returns events fired.
  std::uint64_t fire_through(TimePoint last);

  EventQueue queue_;
  TimePoint now_;
  bool stopped_ = false;
  std::uint64_t events_fired_ = 0;
  Tracer tracer_;
};

}  // namespace nicsched::sim
