#pragma once
// Closure events for tests that drive the engine by hand: one EventTarget
// keeps each closure in a slot and schedules an event that names the slot.
// Simulation components schedule plain event records instead. Nothing
// re-registers the closures on a copy of the engine, so copying a
// Simulation with a ClosureEvents registered fails its verify_fork()
// check. It must outlive the engine's runs: the engine holds its address.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cbs::testing {

class ClosureEvents final : public sim::EventTarget {
 public:
  explicit ClosureEvents(sim::Simulation& sim)
      : sim_(sim), target_(sim.register_target(*this)) {}
  ClosureEvents(const ClosureEvents&) = delete;
  ClosureEvents& operator=(const ClosureEvents&) = delete;

  /// Runs `fn` at absolute time `t >= now()`.
  sim::EventId at(sim::SimTime t, std::function<void()> fn) {
    return sim_.schedule_at(t, {target_, 0, store(std::move(fn))});
  }
  /// Runs `fn` after a non-negative delay.
  sim::EventId in(sim::SimDuration delay, std::function<void()> fn) {
    return sim_.schedule_in(delay, {target_, 0, store(std::move(fn))});
  }
  /// Cancels a closure scheduled here and releases it. Returns false when
  /// it already ran or was cancelled.
  bool cancel(sim::EventId id) {
    const sim::Event* event = sim_.find_pending(id);
    if (event == nullptr || event->target != target_) return false;
    closures_[event->arg] = nullptr;
    return sim_.cancel(id);
  }

  void on_event(std::uint32_t /*kind*/, std::uint64_t slot) override {
    // Moved out first: the closure may schedule more, growing closures_.
    const std::function<void()> fn = std::move(closures_[slot]);
    closures_[slot] = nullptr;
    fn();
  }

 private:
  std::uint64_t store(std::function<void()> fn) {
    closures_.push_back(std::move(fn));
    return closures_.size() - 1;
  }

  sim::Simulation& sim_;
  sim::TargetId target_;
  std::vector<std::function<void()>> closures_;  ///< one slot per event
};

}  // namespace cbs::testing
