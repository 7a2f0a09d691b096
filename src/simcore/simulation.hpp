#pragma once

#include <cstdint>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"

namespace cbs::sim {

/// A component that receives events. It registers with its Simulation once,
/// at construction, and handles every event it scheduled in on_event().
class EventTarget {
 public:
  virtual void on_event(std::uint32_t kind, std::uint64_t arg) = 0;

 protected:
  ~EventTarget() = default;
};

/// The discrete-event simulation engine.
///
/// Components schedule plain event records `{target, kind, arg}`; `run()`
/// drains them in timestamp order, advancing the clock, and hands each to
/// its registered target. The engine is single-threaded by design — all
/// parallelism in the modeled system (clusters, concurrent transfers) is
/// expressed as interleaved events, which keeps every run deterministic.
///
/// ## Forks
///
/// A Simulation is copyable: the copy takes the clock, the seq counter and
/// every pending event, so each EventId of the source names the same event
/// in the copy. It does not take the target table. The owners of the copy
/// register their clones in the source's order (register_target with the
/// source's id checks each), and verify_fork() then checks that as many
/// targets registered as the source had.
///
/// ## Thread-safety contract (the reentrancy rules of the whole stack)
///
/// A `Simulation` instance is confined to one thread: no member may be
/// called concurrently, and no internal synchronization is performed. The
/// one exception is the copy constructor, which only reads its source, so
/// several threads may copy one idle engine at once (lookahead rollouts).
/// *Distinct* instances are fully independent — the engine, and every
/// component layered on it (`src/net`, `src/compute`, `src/core`), holds
/// no mutable global or function-local static state, so N simulations may
/// run on N threads at once. This is what the parallel experiment runner
/// (`harness/runner.hpp`) relies on. `simcore` keeps no process-wide
/// state at all: each run's log goes through its own controller's Logger
/// and sink. Determinism is per-instance: a run's
/// event trace depends only on its inputs (config + seed), never on what
/// other threads do.
class Simulation {
 public:
  Simulation() = default;
  /// Fork: copies the clock, the processed count, the seq counter and the
  /// pending events of `src`, but no target.
  Simulation(const Simulation& src);
  Simulation& operator=(const Simulation&) = delete;

  /// Adds `target` to the target table and returns its id.
  TargetId register_target(EventTarget& target);

  /// register_target() on a fork, at the id `source_id` that the fork
  /// source gave the same component: clone constructors must register in
  /// their sources' order, or pending events reach the wrong component.
  TargetId register_target(EventTarget& target, TargetId source_id);

  /// Throws std::runtime_error unless this copy's owners registered exactly
  /// as many targets as its source had. Call once, after the fork's
  /// components are built.
  void verify_fork() const;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `event` at absolute time `t >= now()`.
  EventId schedule_at(SimTime t, Event event);

  /// Schedules `event` after a non-negative delay.
  EventId schedule_in(SimDuration delay, Event event);

  /// Reserves `count` consecutive scheduling-order numbers and returns the
  /// first. An event later scheduled with schedule_reserved() at one of
  /// them pops exactly where an event scheduled now would have: a long
  /// chain of future events can then keep only its next link pending.
  std::uint64_t reserve_seqs(std::uint64_t count) noexcept {
    const std::uint64_t first = queue_.next_seq();
    queue_.set_next_seq(first + count);
    return first;
  }

  /// Schedules `event` at `t >= now()` under a seq taken from
  /// reserve_seqs() (each reserved seq at most once).
  EventId schedule_reserved(SimTime t, std::uint64_t seq, Event event);

  /// Cancels a pending event; no-op if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to `t >= now()` under a fresh seq: it then
  /// pops exactly where cancel() plus schedule_at() would put it, and `id`
  /// still names it. Returns false when `id` is not pending.
  bool reschedule(EventId id, SimTime t);

  /// The record of a pending event; nullptr once it fired or was cancelled.
  [[nodiscard]] const Event* find_pending(EventId id) const noexcept {
    return queue_.find(id);
  }

  /// Runs until the event queue is empty. Returns the final clock value.
  SimTime run();

  /// Runs every event with timestamp <= `deadline` (events at exactly
  /// `deadline` still fire), then advances the clock to `deadline` — even
  /// when the queue drains early. Returns the clock.
  SimTime run_until(SimTime deadline);

  /// Fires at most one event. Returns false if the queue was empty.
  bool step();

  /// Pre-sizes the event slab/heap for `expected_events` concurrent events
  /// (see EventQueue::reserve). Purely a performance hint.
  void reserve_events(std::size_t expected_events) {
    queue_.reserve(expected_events);
  }

  /// Requests that run()/run_until() return before the next event fires.
  void stop() noexcept { stop_requested_ = true; }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  /// Pending events addressed to `target`.
  [[nodiscard]] std::size_t pending_events_of(TargetId target) const noexcept {
    return queue_.count_pending(target);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  std::uint64_t processed_ = 0;
  bool stop_requested_ = false;
  /// Not copied: a fork's components register their own clones.
  std::vector<EventTarget*> targets_;
  /// Targets the fork source had; verify_fork() compares against it.
  std::size_t source_targets_ = 0;
};

}  // namespace cbs::sim
