#pragma once

#include <cstddef>
#include <vector>

#include "simcore/time.hpp"

namespace cbs::net {

/// Per-time-of-day tuner for the number of parallel upload/download threads
/// (paper Fig. 4b): each slot hill-climbs on measured throughput.
///
/// The link caps each connection at `per_connection_cap`, so throughput
/// grows roughly linearly in the thread count until the pipe saturates;
/// past that point extra threads add nothing (and in this model, nothing is
/// lost either, so the tuner prefers the *smallest* saturating count).
class ThreadTuner {
 public:
  struct Config {
    std::size_t slots_per_day = 48;
    int max_threads = 32;
    int initial_threads = 4;
  };

  explicit ThreadTuner(Config config);

  /// Thread count to use for a transfer starting at `t`. Alternates between
  /// exploiting the current best and probing a neighbor (±1), so the tuner
  /// keeps adapting as the diurnal capacity moves.
  [[nodiscard]] int suggest(cbs::sim::SimTime t);

  /// Reports the measured throughput (bytes/s) achieved with `threads`.
  void report(cbs::sim::SimTime t, int threads, double throughput);

  /// Current converged choice for a slot (for the Fig. 4b bench).
  [[nodiscard]] int best_for_slot(std::size_t slot) const;

 private:
  struct SlotState {
    int best_threads;
    double best_throughput = 0.0;
    int probe_direction = +1;  // next exploration direction
    std::size_t reports = 0;
    bool exploring = false;
    int exploring_threads = 0;
  };

  [[nodiscard]] std::size_t slot_of(cbs::sim::SimTime t) const;

  /// Fewest threads a transfer uses, and the relative throughput gain a
  /// higher count must show to be accepted (so noise does not drift it up).
  static constexpr int kMinThreads = 1;
  static constexpr double kImprovementThreshold = 0.05;

  Config config_;
  std::vector<SlotState> slots_;
};

}  // namespace cbs::net
