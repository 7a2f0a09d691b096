#pragma once

#include <cstdint>
#include <vector>

#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"

namespace cbs::sla {

/// Makespan (Eq. 7): time from the job set's arrival (earliest arrival) to
/// the last completion. Jobs may finish in any order, hence the max.
[[nodiscard]] double makespan(const std::vector<JobOutcome>& outcomes);

/// Sequential reference time t_seq(J): total realized standard-machine
/// service of the job set — what one standard machine would need.
[[nodiscard]] double sequential_time(const std::vector<JobOutcome>& outcomes);

/// Speedup. The paper's Eq. 10 prints s = C / t_seq, but its Table I
/// reports values of 5.6–6.8 on at most 10 machines, which is t_seq / C;
/// we implement the meaningful ratio (≥ 1 when bursting helps).
[[nodiscard]] double speedup(const std::vector<JobOutcome>& outcomes);

/// Average utilization of a machine set (Eq. 9): Σ busy / (|M| · C); with
/// one machine it is Eq. 8, busy time / makespan.
[[nodiscard]] double set_utilization(double total_busy_seconds,
                                     std::size_t machine_count,
                                     double makespan_seconds);

/// Eq. 12: overall burst ratio (batch-size-weighted mean of Eq. 11, which
/// reduces to total bursted / total jobs); over one batch's outcomes it is
/// Eq. 11.
[[nodiscard]] double burst_ratio(const std::vector<JobOutcome>& outcomes);

/// Mean job turnaround (completion − arrival); not in the paper's SLA list
/// but reported by the harness as a sanity metric.
[[nodiscard]] double mean_turnaround(const std::vector<JobOutcome>& outcomes);

/// Quantifies the "peaks and valleys" of Fig. 7/8. An in-order consumer
/// reads results at the frontier runmax(c_1..c_i); a job that completes
/// after everything before it pushes that frontier forward and makes the
/// consumer wait idle ("high peak" = large push), while early completions
/// are valleys (ready before needed — harmless).
struct OrderlinessStats {
  /// Pairs (i < j) with c_i > c_j — raw out-of-order count.
  std::size_t inversions = 0;
  /// Largest single frontier push, seconds (the tallest peak).
  double max_frontier_push = 0.0;
  /// 95th percentile of positive frontier pushes.
  double p95_frontier_push = 0.0;
  /// Number of pushes exceeding the given threshold.
  std::size_t pushes_over_threshold = 0;
};

[[nodiscard]] OrderlinessStats compute_orderliness(
    const std::vector<JobOutcome>& outcomes, double push_threshold_seconds);

}  // namespace cbs::sla
