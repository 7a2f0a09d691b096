#include "net/thread_tuner.hpp"

#include <algorithm>
#include <cassert>

#include "net/time_of_day.hpp"

namespace cbs::net {

using cbs::sim::SimTime;

ThreadTuner::ThreadTuner(Config config) : config_(config) {
  assert(config.slots_per_day > 0);
  assert(config.min_threads >= 1);
  assert(config.max_threads >= config.min_threads);
  assert(config.initial_threads >= config.min_threads &&
         config.initial_threads <= config.max_threads);
  slots_.resize(config.slots_per_day, SlotState{config.initial_threads});
}

std::size_t ThreadTuner::slot_of(SimTime t) const {
  return day_slot(t, config_.slots_per_day);
}

int ThreadTuner::suggest(SimTime t) {
  SlotState& s = slots_[slot_of(t)];
  // Every third decision explores a neighboring thread count; the rest
  // exploit the incumbent. Exploration alternates up/down.
  if (s.reports > 0 && s.reports % 3 == 2) {
    const int candidate = std::clamp(s.best_threads + s.probe_direction,
                                     config_.min_threads, config_.max_threads);
    s.probe_direction = -s.probe_direction;
    if (candidate != s.best_threads) {
      s.exploring = true;
      s.exploring_threads = candidate;
      return candidate;
    }
  }
  s.exploring = false;
  return s.best_threads;
}

void ThreadTuner::report(SimTime t, int threads, double throughput) {
  assert(throughput >= 0.0);
  SlotState& s = slots_[slot_of(t)];
  ++s.reports;
  if (s.best_throughput == 0.0 && threads == s.best_threads) {
    s.best_throughput = throughput;
    return;
  }
  if (threads == s.best_threads) {
    // Refresh the incumbent's throughput (EWMA-style light smoothing).
    s.best_throughput = 0.5 * s.best_throughput + 0.5 * throughput;
    return;
  }
  if (threads < s.best_threads) {
    // Accept fewer threads whenever throughput is not materially worse —
    // fewer connections for the same rate is strictly preferable.
    if (throughput >= s.best_throughput * (1.0 - config_.improvement_threshold)) {
      s.best_threads = threads;
      s.best_throughput = throughput;
    }
    return;
  }
  // More threads must earn their keep.
  if (throughput > s.best_throughput * (1.0 + config_.improvement_threshold)) {
    s.best_threads = threads;
    s.best_throughput = throughput;
  }
}

int ThreadTuner::best_for_slot(std::size_t slot) const {
  assert(slot < slots_.size());
  return slots_[slot].best_threads;
}

}  // namespace cbs::net
