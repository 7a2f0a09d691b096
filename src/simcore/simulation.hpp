#pragma once

#include <cstdint>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace cbs::sim {

/// The discrete-event simulation engine.
///
/// Components schedule callbacks; `run()` drains them in timestamp order,
/// advancing the clock. The engine is single-threaded by design — all
/// parallelism in the modeled system (clusters, concurrent transfers) is
/// expressed as interleaved events, which keeps every run deterministic.
///
/// ## Thread-safety contract (the reentrancy rules of the whole stack)
///
/// A `Simulation` instance is confined to one thread: no member may be
/// called concurrently, and no internal synchronization is performed.
/// *Distinct* instances are fully independent — the engine, and every
/// component layered on it (`src/net`, `src/compute`, `src/core`), holds
/// no mutable global or function-local static state, so N simulations may
/// run on N threads at once. This is what the parallel experiment runner
/// (`harness/runner.hpp`) relies on. The only process-wide state in
/// `simcore` is `Logger::global_threshold()`, an atomic that acts purely
/// as a floor for newly built loggers; per-run log routing goes through
/// per-controller sinks instead. Determinism is per-instance: a run's
/// event trace depends only on its inputs (config + seed), never on what
/// other threads do.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t >= now()`.
  EventId schedule_at(SimTime t, EventQueue::Callback cb);

  /// Schedules `cb` after a non-negative delay.
  EventId schedule_in(SimDuration delay, EventQueue::Callback cb);

  /// Reserves `count` consecutive scheduling-order numbers and returns the
  /// first. An event later scheduled with schedule_reserved() at one of
  /// them pops exactly where an event scheduled now would have: a long
  /// chain of future events can then keep only its next link pending.
  std::uint64_t reserve_seqs(std::uint64_t count) noexcept {
    const std::uint64_t first = queue_.next_seq();
    queue_.set_next_seq(first + count);
    return first;
  }

  /// Schedules `cb` at `t >= now()` under a seq taken from reserve_seqs()
  /// (each reserved seq at most once), via the explicit-seq path a fork's
  /// restore_event() uses.
  EventId schedule_reserved(SimTime t, std::uint64_t seq,
                            EventQueue::Callback cb);

  /// Cancels a pending event; no-op if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue is empty. Returns the final clock value.
  SimTime run();

  /// Runs every event with timestamp <= `deadline` (events at exactly
  /// `deadline` still fire), then advances the clock to `deadline` — even
  /// when the queue drains early. Returns the clock.
  SimTime run_until(SimTime deadline);

  /// Fires at most one event. Returns false if the queue was empty.
  bool step();

  /// Pre-sizes the event slab/heap for `expected_events` concurrent events
  /// (see EventQueue::reserve). Purely a performance hint — worth calling
  /// before bulk scheduling, since slab growth relocates stored callbacks.
  void reserve_events(std::size_t expected_events) {
    queue_.reserve(expected_events);
  }

  /// Requests that run()/run_until() return before the next event fires.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  // --- Snapshot/fork support (see simcore/snapshot.hpp) ----------------

  /// Pending {id, time, seq} records, sorted by scheduling order.
  [[nodiscard]] std::vector<EventQueue::PendingEvent> pending_snapshot() const {
    return queue_.pending_records();
  }

  /// Copies the clock, processed count and event-seq counter from `src`
  /// into this (empty) engine, so restored events keep their original
  /// ordering and newly scheduled events continue the source's sequence.
  void adopt_clock_from(const Simulation& src) noexcept {
    now_ = src.now_;
    processed_ = src.processed_;
    stop_requested_ = false;
    queue_.set_next_seq(src.queue_.next_seq());
  }

  /// Re-schedules an event carrying a source queue's (time, seq) record.
  EventId restore_event(SimTime t, std::uint64_t seq, EventQueue::Callback cb) {
    return queue_.restore(t, seq, std::move(cb));
  }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  std::uint64_t processed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace cbs::sim
