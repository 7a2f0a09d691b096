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

/// The ordered-output frontier of completed jobs folded in any id order:
/// the first id not yet folded, the id-order sum of output below it and the
/// outputs folded ahead of it. Folding is O(1) amortized per id up to the
/// highest folded; `ordered()` costs the span from the frontier to the
/// (tolerance+1)-th missing id. `series()` and the lookahead score (which
/// copies its parent's) fold into one; `sample_at` is their reference.
class OoFrontier {
 public:
  /// Folds in a completed job: each `seq_id` (>= 1) once, `output_mb` >= 0.
  void fold(std::uint64_t seq_id, double output_mb);

  /// m_t, o_t and |C_t| over the folded jobs (`time` is left 0). o_t adds
  /// the same doubles in the same order as `sample_at`: bit-identical to it.
  [[nodiscard]] OoSample ordered(std::uint64_t tolerance) const;

  /// Jobs folded in.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// The smallest id not folded in; every id below it is.
  [[nodiscard]] std::uint64_t frontier() const noexcept {
    return base_ + head_;
  }

 private:
  /// output_mb of id base_ + i at [i], −1 where that id is not folded in;
  /// it ends at the highest folded id. [0, head_) is below the frontier.
  std::vector<double> ahead_;
  std::uint64_t base_ = 1;
  std::size_t head_ = 0;
  double below_mb_ = 0.0;  // Σ output_mb, ids 1..frontier()-1, id order
  std::size_t count_ = 0;
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
  /// `outcomes` may be in any order, each id (>= 1) at most once. An id
  /// below the largest that is absent counts as never done, so a rollout's
  /// partial log is accepted as is.
  explicit OoMetricCalculator(const std::vector<JobOutcome>& outcomes);

  /// The metric at one sampling time: one O(n) pass over the ids. The
  /// reference that series() and every OoFrontier are tested against.
  [[nodiscard]] OoSample sample_at(cbs::sim::SimTime t, std::uint64_t tolerance) const;

  /// Samples every `interval` seconds from t = 0 through the last
  /// completion (inclusive of one sample past it, so the series ends flat).
  /// One OoFrontier fed each sample's newly done jobs: O(n + T) set-up, then
  /// each sample costs the span from the frontier to the (tolerance+1)-th
  /// missing id and is bit-identical to `sample_at` at its time. Throws
  /// std::invalid_argument when that takes kMaxSeriesSamples or more.
  [[nodiscard]] std::vector<OoSample> series(cbs::sim::SimDuration interval,
                                             std::uint64_t tolerance) const;

  /// o_t as a TimeSeries (for relative-difference plots, Fig. 10).
  [[nodiscard]] cbs::stats::TimeSeries ordered_mb_series(
      cbs::sim::SimDuration interval, std::uint64_t tolerance) const;

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
