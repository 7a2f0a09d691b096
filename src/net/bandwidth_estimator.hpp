#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "net/ewma.hpp"
#include "simcore/time.hpp"

namespace cbs::net {

/// The autonomic network-estimation model of §III.A.2: the day is divided
/// into slots; each slot keeps an EWMA (α = 0.3) of the effective rates
/// observed there (periodic 1 MB probes plus every real transfer). Queries
/// for a slot with no data yet fall back to the global EWMA, then to the
/// configured prior.
///
/// This object is the *only* view of the network that schedulers get — the
/// gap between these estimates and Link's ground truth is what the paper's
/// robustness results are about.
class BandwidthEstimator {
 public:
  struct Config {
    std::size_t slots_per_day = 48;  ///< 30-minute slots
    double prior_rate = 250.0e3;     ///< bytes/s before any observation
  };

  explicit BandwidthEstimator(Config config);

  /// Records an observed effective rate (bytes/s) at time `t`.
  void observe(cbs::sim::SimTime t, double rate);

  /// The most recent raw observation Y_n, un-smoothed — the "transient
  /// value of bandwidth" §IV.D says the Greedy scheduler reacts to. Falls
  /// back to the prior before any observation.
  [[nodiscard]] double last_observed() const noexcept {
    return last_observed_ > 0.0 ? last_observed_ : config_.prior_rate;
  }

  /// Estimated rate at time `t` (slot EWMA → global EWMA → prior).
  [[nodiscard]] double estimate(cbs::sim::SimTime t) const;

  /// Estimated seconds to move `bytes` starting at time `t`, integrating the
  /// per-slot estimates (each at least 1 B/s) across slot boundaries: a
  /// transfer that straddles the fast night slots and the slow morning
  /// slots gets a blended value. The integration spans at most seven days
  /// from the start of t's slot; bytes left beyond that move at the rate of
  /// the slot the cap ends in. The cost does not grow with `bytes`: the
  /// first query after an observe() rebuilds a per-day cumulative table in
  /// O(slots_per_day), and every query is then O(log slots_per_day). That
  /// rebuild writes, so one estimator must not be queried from two threads
  /// at once.
  [[nodiscard]] double estimate_transfer_seconds(cbs::sim::SimTime t,
                                                 double bytes) const;

  /// A lower bound on estimate_transfer_seconds(t, b) for every b ≥ `bytes`,
  /// given `seconds`, the estimate for (t, bytes) made since the last
  /// observe(). The estimate grows with the bytes except at the seams where
  /// a transfer starts to reach into one more slot or day: the pieces on
  /// either side are rounded apart, and the estimate can step back there
  /// by rounding (~5e-13 of its value seen). The bound takes off 2^-40 of
  /// the estimate plus 2^-40 of the seconds a week's bytes and `bytes`
  /// take at the slowest slot, which covers every such step.
  [[nodiscard]] double transfer_seconds_floor(double seconds,
                                              double bytes) const;

  /// Work done by estimate_transfer_seconds, counted rather than timed so
  /// that it does not depend on the host.
  struct Work {
    std::size_t queries = 0;
    std::size_t table_rebuilds = 0;
    std::size_t search_steps = 0;  ///< cumulative-table probes
  };
  [[nodiscard]] const Work& work() const noexcept { return work_; }

  [[nodiscard]] std::size_t slot_of(cbs::sim::SimTime t) const;
  [[nodiscard]] std::size_t slots_per_day() const noexcept { return config_.slots_per_day; }
  [[nodiscard]] std::size_t observation_count() const noexcept { return observations_; }
  /// Per-slot estimate (for the Fig. 4a bench); falls back like estimate().
  [[nodiscard]] double slot_estimate(std::size_t slot) const;

 private:
  /// Refills rate_ and movable_ from the current estimates.
  void rebuild_table() const;
  /// Bytes that the m whole slots starting at slot `first` move, m ≤ a day.
  [[nodiscard]] double movable_in(std::size_t first, std::size_t m) const;

  Config config_;
  std::vector<Ewma> slot_ewmas_;
  Ewma global_ewma_;
  std::size_t observations_ = 0;
  double last_observed_ = 0.0;

  // Filled in by the first query after an observe() (logically const):
  // rate_[k] is slot k's estimate clamped to ≥ 1 B/s, and movable_[k] the
  // bytes whole slots 0..k−1 move at those rates, so movable_.back() is a
  // day's capacity; min_rate_ is the smallest rate_[k].
  mutable std::vector<double> rate_;
  mutable std::vector<double> movable_;
  mutable double min_rate_ = 1.0;
  mutable bool table_stale_ = true;
  mutable Work work_;
  // The slot terms of the last query's start time t, kept because the
  // queries of one admission share it: t's slot, the end of that slot and
  // the slot after it (kNoSlot until a query from t reaches it). They
  // depend on t alone, so no observe() stales them.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  mutable cbs::sim::SimTime last_t_ = std::numeric_limits<double>::quiet_NaN();
  mutable std::size_t last_slot_ = 0;
  mutable double last_slot_end_ = 0.0;
  mutable std::size_t last_next_slot_ = kNoSlot;
};

}  // namespace cbs::net
