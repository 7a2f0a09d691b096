#include "sla/report.hpp"

#include <iomanip>
#include <sstream>
#include <utility>

namespace cbs::sla {

SlaReport build_report(std::string scheduler, std::string bucket,
                       const std::vector<JobOutcome>& outcomes,
                       double ic_total_busy, std::size_t ic_machines,
                       double ec_total_busy, std::size_t ec_machines,
                       double oo_interval, std::uint64_t oo_tolerance) {
  cbs::stats::TimeSeries oo_series;
  if (!outcomes.empty()) {
    oo_series = OoMetricCalculator(outcomes).ordered_mb_series(oo_interval,
                                                               oo_tolerance);
  }
  return build_report(std::move(scheduler), std::move(bucket), outcomes,
                      ic_total_busy, ic_machines, ec_total_busy, ec_machines,
                      oo_series, oo_tolerance);
}

SlaReport build_report(std::string scheduler, std::string bucket,
                       const std::vector<JobOutcome>& outcomes,
                       double ic_total_busy, std::size_t ic_machines,
                       double ec_total_busy, std::size_t ec_machines,
                       const cbs::stats::TimeSeries& oo_series,
                       std::uint64_t oo_tolerance) {
  SlaReport r;
  r.scheduler = std::move(scheduler);
  r.bucket = std::move(bucket);
  r.job_count = outcomes.size();
  r.makespan_seconds = makespan(outcomes);
  r.speedup = speedup(outcomes);
  r.ic_utilization =
      set_utilization(ic_total_busy, ic_machines, r.makespan_seconds);
  r.ec_utilization =
      set_utilization(ec_total_busy, ec_machines, r.makespan_seconds);
  r.burst_ratio = burst_ratio(outcomes);
  r.mean_turnaround_seconds = mean_turnaround(outcomes);
  r.oo_tolerance = oo_tolerance;

  if (!outcomes.empty() && !oo_series.empty()) {
    r.oo_final_mb = oo_series.back().value;
    const double end = oo_series.back().time;
    if (end > 0.0) r.oo_time_averaged_mb = oo_series.time_average(0.0, end);
  }
  return r;
}

std::string format_table(const std::vector<SlaReport>& reports) {
  std::ostringstream oss;
  oss << std::left << std::setw(22) << "scheduler" << std::setw(9) << "bucket"
      << std::right << std::setw(6) << "jobs" << std::setw(12) << "makespan"
      << std::setw(9) << "speedup" << std::setw(9) << "IC-util" << std::setw(9)
      << "EC-util" << std::setw(9) << "burst" << std::setw(12) << "turnaround"
      << std::setw(12) << "OO-avg-MB" << "\n";
  oss << std::string(109, '-') << "\n";
  for (const SlaReport& r : reports) {
    oss << std::left << std::setw(22) << r.scheduler << std::setw(9) << r.bucket
        << std::right << std::setw(6) << r.job_count << std::fixed
        << std::setprecision(1) << std::setw(12) << r.makespan_seconds
        << std::setprecision(2) << std::setw(9) << r.speedup
        << std::setprecision(1) << std::setw(8) << r.ic_utilization * 100.0
        << "%" << std::setw(8) << r.ec_utilization * 100.0 << "%"
        << std::setprecision(2) << std::setw(9) << r.burst_ratio
        << std::setprecision(1) << std::setw(12) << r.mean_turnaround_seconds
        << std::setw(12) << r.oo_time_averaged_mb << "\n";
    oss.unsetf(std::ios::fixed);
  }
  return oss.str();
}

}  // namespace cbs::sla
