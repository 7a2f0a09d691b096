#include "sla/oo_metric.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace cbs::sla {

using cbs::sim::SimDuration;
using cbs::sim::SimTime;

void OoFrontier::fold(std::uint64_t seq_id, double output_mb) {
  assert(seq_id >= base_ + head_ && output_mb >= 0.0);
  ++count_;
  const auto i = static_cast<std::size_t>(seq_id - base_);
  if (i >= ahead_.size()) ahead_.resize(i + 1, -1.0);
  ahead_[i] = output_mb;
  if (i != head_) return;
  // The frontier's own id landed: move it past every folded id after it,
  // adding their outputs to the id-order sum as sample_at() would.
  while (head_ < ahead_.size() && ahead_[head_] >= 0.0) {
    below_mb_ += ahead_[head_++];
  }
  // Drop the spent front once it outweighs the rest (O(1) amortized).
  if (2 * head_ >= ahead_.size()) {
    ahead_.erase(ahead_.begin(),
                 ahead_.begin() + static_cast<std::ptrdiff_t>(head_));
    base_ += head_;
    head_ = 0;
  }
}

OoSample OoFrontier::ordered(std::uint64_t tolerance) const {
  // Eq. 5–6 resumed at the frontier: continue the id-order sum through the
  // folded ids ahead and stop at the (tolerance+1)-th missing one.
  OoSample s{.max_in_order = frontier() - 1, .ordered_mb = below_mb_,
             .completed_count = count_};
  std::uint64_t missing = 0;
  for (std::size_t i = head_; i < ahead_.size(); ++i) {
    if (ahead_[i] >= 0.0) {
      s.ordered_mb += ahead_[i];
      s.max_in_order = base_ + i;
    } else if (++missing > tolerance) {
      break;
    }
  }
  return s;
}

OoMetricCalculator::OoMetricCalculator(const std::vector<JobOutcome>& outcomes) {
  by_id_.resize(outcomes.size() + 1);
  for (const JobOutcome& o : outcomes) {
    assert(o.seq_id >= 1);
    if (o.seq_id >= by_id_.size()) by_id_.resize(o.seq_id + 1);
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
  out.reserve(static_cast<std::size_t>(end / interval) + 2);
  for (SimTime t = 0.0; t <= end; t += interval) out.push_back({.time = t});

  // One forward sweep instead of one sample_at() per sample. Job i is done
  // from its due sample on, the first sample time >= its completion (never,
  // for completed <= 0, as in sample_at()); each sample folds the jobs due
  // there into one frontier, bucketed by a counting sort, and reads it.
  const std::size_t n = by_id_.size() - 1;
  std::vector<std::size_t> due(n + 1, out.size());
  std::vector<std::size_t> bucket_end(out.size() + 2, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    const SimTime completed = by_id_[i].completed;
    if (completed > 0.0) {
      // The times are a running sum: step from the estimate completed /
      // interval (series_fits() bounds it) to the first time >= completed.
      auto k = std::min(static_cast<std::size_t>(completed / interval),
                        out.size());
      while (k > 0 && out[k - 1].time >= completed) --k;
      while (k < out.size() && out[k].time < completed) ++k;
      due[i] = k;
    }
    ++bucket_end[due[i] + 1];
  }
  // bucket_end[k] is bucket k's start, then, once every id is placed, its end.
  std::partial_sum(bucket_end.begin(), bucket_end.end(), bucket_end.begin());
  std::vector<std::size_t> by_due(n);
  for (std::size_t i = 1; i <= n; ++i) by_due[bucket_end[due[i]]++] = i;

  OoFrontier frontier;
  std::size_t j = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    for (; j < bucket_end[k]; ++j) {
      frontier.fold(by_due[j], by_id_[by_due[j]].output_mb);
    }
    const SimTime t = out[k].time;
    out[k] = frontier.ordered(tolerance);
    out[k].time = t;
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
