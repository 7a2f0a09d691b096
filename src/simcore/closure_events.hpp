#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "simcore/callback.hpp"
#include "simcore/simulation.hpp"

namespace cbs::sim {

/// An EventTarget that owns closures, for drivers that are never forked:
/// tests, benchmark drivers and examples. Each closure waits in a slot of
/// this target and its event carries the slot index. Simulation components
/// schedule plain event records instead; copying a Simulation with a
/// ClosureEvents registered fails its verify_fork() check, because nothing
/// re-registers the closures on the copy. It must outlive the engine's
/// runs: the engine holds its address.
class ClosureEvents final : public EventTarget {
 public:
  explicit ClosureEvents(Simulation& sim);
  ClosureEvents(const ClosureEvents&) = delete;
  ClosureEvents& operator=(const ClosureEvents&) = delete;

  /// Runs `cb` at absolute time `t >= now()`.
  EventId at(SimTime t, UniqueCallback cb);
  /// Runs `cb` after a non-negative delay.
  EventId in(SimDuration delay, UniqueCallback cb);
  /// Cancels a closure scheduled here and releases it. Returns false when
  /// it already ran or was cancelled.
  bool cancel(EventId id);

  void on_event(std::uint32_t kind, std::uint64_t slot) override;

 private:
  std::uint64_t store(UniqueCallback cb);

  Simulation& sim_;
  TargetId target_;
  /// A deque, so growing it never relocates the stored closures: a driver
  /// that schedules a run's worth up front pays no reallocation peak.
  std::deque<UniqueCallback> closures_;
  std::vector<std::uint64_t> free_;  ///< released closure slots
};

}  // namespace cbs::sim
