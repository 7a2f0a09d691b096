#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"
#include "stats/timeseries.hpp"

namespace cbs::sla {

/// The most samples OoMetricCalculator::series() takes: far above any run
/// here (40000 batches at the default 120 s interval take ~6e4), far below
/// what exhausts memory.
inline constexpr std::size_t kMaxSeriesSamples = 10'000'000;

/// Whether series() at `interval` over a run whose last job completes at
/// `last_completion` takes fewer than kMaxSeriesSamples samples (not if NaN).
[[nodiscard]] inline bool series_fits(cbs::sim::SimTime last_completion,
                                      cbs::sim::SimDuration interval) {
  return (last_completion + interval) / interval <
         static_cast<double>(kMaxSeriesSamples);
}

/// One sampling point of the Out-of-Order metric (paper Eq. 3–6).
struct OoSample {
  cbs::sim::SimTime time = 0.0;     ///< s_t
  std::uint64_t max_in_order = 0;   ///< m_t (0 when even job 1 is missing beyond t_l)
  double ordered_mb = 0.0;          ///< o_t: ordered output available, MB
  std::size_t completed_count = 0;  ///< |C_t|
};

/// Computes the paper's OO metric: at each sampling time s_t, the largest
/// job id m_t such that job m_t has completed and at most `tolerance` jobs
/// with smaller ids are still missing (Eq. 5, i − t_l ≤ |J_it|), and the
/// cumulative output size o_t of completed jobs with id ≤ m_t (Eq. 6).
///
/// o_t is what a downstream printer can consume while preserving (within
/// tolerance) the queue's chronology.
class OoMetricCalculator {
 public:
  /// `outcomes` may be in any order; ids must be 1..n exactly once
  /// (validate_outcomes enforces this upstream).
  explicit OoMetricCalculator(const std::vector<JobOutcome>& outcomes);

  /// The metric at one sampling time: one O(n) pass over the ids. The
  /// reference `series()` is tested against.
  [[nodiscard]] OoSample sample_at(cbs::sim::SimTime t, std::uint64_t tolerance) const;

  /// Samples every `interval` seconds from t = 0 through the last
  /// completion (inclusive of one sample past it, so the series ends flat).
  /// One forward sweep: O(n log T) set-up, then each sample costs the span
  /// from the in-order frontier to the (tolerance+1)-th missing id; each
  /// sample is bit-identical to `sample_at` at its time. Throws
  /// std::invalid_argument when that takes kMaxSeriesSamples or more.
  [[nodiscard]] std::vector<OoSample> series(cbs::sim::SimDuration interval,
                                             std::uint64_t tolerance) const;

  /// o_t as a TimeSeries (for relative-difference plots, Fig. 10).
  [[nodiscard]] cbs::stats::TimeSeries ordered_mb_series(
      cbs::sim::SimDuration interval, std::uint64_t tolerance) const;

  [[nodiscard]] std::size_t job_count() const noexcept { return by_id_.size(); }
  [[nodiscard]] cbs::sim::SimTime last_completion() const noexcept {
    return last_completion_;
  }

 private:
  struct JobInfo {
    cbs::sim::SimTime completed = 0.0;
    double output_mb = 0.0;
  };

  std::vector<JobInfo> by_id_;  // index 0 unused; ids are 1-based
  cbs::sim::SimTime last_completion_ = 0.0;
};

}  // namespace cbs::sla
