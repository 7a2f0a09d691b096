#include "sla/metrics.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::sla {

double makespan(const std::vector<JobOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  double earliest_arrival = outcomes.front().arrival;
  double last_completion = outcomes.front().completed;
  for (const JobOutcome& o : outcomes) {
    earliest_arrival = std::min(earliest_arrival, o.arrival);
    last_completion = std::max(last_completion, o.completed);
  }
  return last_completion - earliest_arrival;
}

double sequential_time(const std::vector<JobOutcome>& outcomes) {
  double total = 0.0;
  for (const JobOutcome& o : outcomes) total += o.true_service_seconds;
  return total;
}

double speedup(const std::vector<JobOutcome>& outcomes) {
  const double c = makespan(outcomes);
  return c <= 0.0 ? 0.0 : sequential_time(outcomes) / c;
}

double set_utilization(double total_busy_seconds, std::size_t machine_count,
                       double makespan_seconds) {
  assert(machine_count > 0);
  return makespan_seconds <= 0.0
             ? 0.0
             : total_busy_seconds /
                   (static_cast<double>(machine_count) * makespan_seconds);
}

double burst_ratio(const std::vector<JobOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  std::size_t bursted = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.bursted()) ++bursted;
  }
  return static_cast<double>(bursted) / static_cast<double>(outcomes.size());
}

namespace {

/// Counts inversions by merge sort, O(n log n).
std::size_t count_inversions(std::vector<double>& v, std::size_t lo,
                             std::size_t hi, std::vector<double>& scratch) {
  if (hi - lo < 2) return 0;
  const std::size_t mid = lo + (hi - lo) / 2;
  std::size_t inv = count_inversions(v, lo, mid, scratch) +
                    count_inversions(v, mid, hi, scratch);
  std::size_t a = lo;
  std::size_t b = mid;
  scratch.clear();
  while (a < mid && b < hi) {
    if (v[a] <= v[b]) {
      scratch.push_back(v[a++]);
    } else {
      inv += mid - a;
      scratch.push_back(v[b++]);
    }
  }
  while (a < mid) scratch.push_back(v[a++]);
  while (b < hi) scratch.push_back(v[b++]);
  std::copy(scratch.begin(), scratch.end(),
            v.begin() + static_cast<std::ptrdiff_t>(lo));
  return inv;
}

}  // namespace

OrderlinessStats compute_orderliness(const std::vector<JobOutcome>& outcomes,
                                     double push_threshold_seconds) {
  OrderlinessStats stats;
  if (outcomes.empty()) return stats;

  std::vector<double> by_seq(outcomes.size(), 0.0);
  for (const JobOutcome& o : outcomes) {
    assert(o.seq_id >= 1 && o.seq_id <= outcomes.size());
    by_seq[o.seq_id - 1] = o.completed;
  }

  std::vector<double> pushes;
  double frontier = 0.0;
  for (double c : by_seq) {
    const double push = c - frontier;
    if (push > 0.0) {
      pushes.push_back(push);
      if (push > push_threshold_seconds) ++stats.pushes_over_threshold;
      frontier = c;
    }
  }
  if (!pushes.empty()) {
    stats.max_frontier_push = *std::max_element(pushes.begin(), pushes.end());
    // Index in double, floor by explicit cast (never implicit narrowing);
    // nth_element places exactly sorted[idx] there, so the value is
    // byte-identical to the previous full sort at O(n) instead of
    // O(n log n).
    std::vector<double> sorted = pushes;
    const auto idx = static_cast<std::size_t>(
        0.95 * static_cast<double>(sorted.size() - 1));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                     sorted.end());
    stats.p95_frontier_push = sorted[idx];
  }

  std::vector<double> scratch;
  scratch.reserve(by_seq.size());
  stats.inversions = count_inversions(by_seq, 0, by_seq.size(), scratch);
  return stats;
}

double mean_turnaround(const std::vector<JobOutcome>& outcomes) {
  if (outcomes.empty()) return 0.0;
  double total = 0.0;
  for (const JobOutcome& o : outcomes) total += o.completed - o.arrival;
  return total / static_cast<double>(outcomes.size());
}

}  // namespace cbs::sla
