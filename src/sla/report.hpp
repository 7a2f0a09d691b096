#pragma once

#include <string>
#include <vector>

#include "sla/job_outcome.hpp"
#include "sla/metrics.hpp"
#include "sla/oo_metric.hpp"

namespace cbs::sla {

/// All headline SLA metrics of one run, in one struct — the row format of
/// the paper's Table I plus the extras the harness tracks.
struct SlaReport {
  std::string scheduler;
  std::string bucket;
  std::size_t job_count = 0;
  double makespan_seconds = 0.0;
  double speedup = 0.0;
  double ic_utilization = 0.0;   ///< Eq. 9 over the internal machines
  double ec_utilization = 0.0;   ///< Eq. 9 over the external machines
  double burst_ratio = 0.0;      ///< Eq. 12
  double mean_turnaround_seconds = 0.0;
  /// Final o_t with the given tolerance (equals total output MB when every
  /// job eventually completes) and the time-average of o_t, which captures
  /// how early ordered data became available.
  double oo_final_mb = 0.0;
  double oo_time_averaged_mb = 0.0;
  std::uint64_t oo_tolerance = 0;
};

/// Builds a report from outcomes plus the cluster busy times measured by
/// the harness. `oo_interval` is the sampling interval for the OO series.
[[nodiscard]] SlaReport build_report(
    std::string scheduler, std::string bucket,
    const std::vector<JobOutcome>& outcomes, double ic_total_busy,
    std::size_t ic_machines, double ec_total_busy, std::size_t ec_machines,
    double oo_interval, std::uint64_t oo_tolerance);

/// Same, from the run's OO series already built by
/// OoMetricCalculator::ordered_mb_series at `oo_tolerance`, for a caller
/// that keeps the series as well.
[[nodiscard]] SlaReport build_report(
    std::string scheduler, std::string bucket,
    const std::vector<JobOutcome>& outcomes, double ic_total_busy,
    std::size_t ic_machines, double ec_total_busy, std::size_t ec_machines,
    const cbs::stats::TimeSeries& oo_series, std::uint64_t oo_tolerance);

/// Fixed-width table of several reports (one line each), with a header —
/// the harness's standard output format.
[[nodiscard]] std::string format_table(const std::vector<SlaReport>& reports);

}  // namespace cbs::sla
