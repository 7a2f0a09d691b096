#include "sla/oo_metric.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace cbs::sla {

using cbs::sim::SimDuration;
using cbs::sim::SimTime;

OoMetricCalculator::OoMetricCalculator(const std::vector<JobOutcome>& outcomes) {
  by_id_.resize(outcomes.size() + 1);
  for (const JobOutcome& o : outcomes) {
    assert(o.seq_id >= 1 && o.seq_id < by_id_.size());
    by_id_[o.seq_id] = JobInfo{o.completed, o.output_mb};
    last_completion_ = std::max(last_completion_, o.completed);
  }
}

OoSample OoMetricCalculator::sample_at(SimTime t, std::uint64_t tolerance) const {
  OoSample s;
  s.time = t;

  // Single forward pass over ids: `completed_below` is |J_it| as i grows.
  std::uint64_t completed_below = 0;  // completed jobs with id <= i
  double prefix_mb = 0.0;             // their total output
  std::uint64_t best_id = 0;
  double best_mb = 0.0;
  for (std::uint64_t i = 1; i < by_id_.size(); ++i) {
    const bool done = by_id_[i].completed <= t && by_id_[i].completed > 0.0;
    if (done) {
      ++completed_below;
      prefix_mb += by_id_[i].output_mb;
      ++s.completed_count;
      // Eq. 5: j_i ∈ C_t  AND  i − t_l ≤ |J_it|.
      if (i <= tolerance + completed_below) {
        best_id = i;
        best_mb = prefix_mb;
      }
    }
  }
  s.max_in_order = best_id;
  s.ordered_mb = best_mb;
  return s;
}

std::vector<OoSample> OoMetricCalculator::series(SimDuration interval,
                                                 std::uint64_t tolerance) const {
  assert(interval > 0.0);
  if (!series_fits(last_completion_, interval)) {
    std::ostringstream msg;
    msg << "OO series: sampling interval " << interval
        << " s over a run ending at " << last_completion_
        << " s needs more than " << kMaxSeriesSamples << " samples";
    throw std::invalid_argument(msg.str());
  }
  const SimTime end = last_completion_ + interval;
  std::vector<OoSample> out;
  for (SimTime t = 0.0; t <= end; t += interval) out.push_back({.time = t});

  // One forward sweep instead of one sample_at() per sample. Job i counts
  // as done from sample due[i] on: the first sample time >= its completion
  // (never, for completed <= 0, as in sample_at()). Done-ness only grows
  // with t, so the frontier `f` (the first id not yet done) only moves
  // right. Ids below it are all done, and their id-order running sum
  // `frontier_mb` is the prefix sum sample_at() accumulates over them; so
  // continuing it through the done ids past `f` adds the same doubles in
  // the same order, and o_t comes out bit-identical. Each sample costs the
  // span from `f` to the (tolerance+1)-th missing id rather than n.
  const std::size_t n = by_id_.size() - 1;
  const std::size_t never = out.size();
  std::vector<std::size_t> due(n + 1, never);
  std::vector<std::size_t> done_at(out.size() + 1, 0);  // jobs per due
  for (std::size_t i = 1; i <= n; ++i) {
    const SimTime completed = by_id_[i].completed;
    if (completed > 0.0) {
      const auto at =
          std::ranges::lower_bound(out, completed, {}, &OoSample::time);
      due[i] = static_cast<std::size_t>(at - out.begin());
    }
    ++done_at[due[i]];
  }

  std::size_t completed_count = 0;
  std::size_t f = 1;
  double frontier_mb = 0.0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    completed_count += done_at[k];
    while (f <= n && due[f] <= k) frontier_mb += by_id_[f++].output_mb;

    OoSample& s = out[k];
    s.completed_count = completed_count;
    s.max_in_order = f - 1;
    double mb = frontier_mb;
    std::uint64_t missing = 0;
    for (std::size_t i = f; i <= n; ++i) {
      if (due[i] <= k) {
        mb += by_id_[i].output_mb;
        s.max_in_order = i;
      } else if (++missing > tolerance) {
        break;
      }
    }
    s.ordered_mb = mb;
  }
  return out;
}

cbs::stats::TimeSeries OoMetricCalculator::ordered_mb_series(
    SimDuration interval, std::uint64_t tolerance) const {
  cbs::stats::TimeSeries ts;
  for (const OoSample& s : series(interval, tolerance)) {
    ts.add(s.time, s.ordered_mb);
  }
  return ts;
}

}  // namespace cbs::sla
