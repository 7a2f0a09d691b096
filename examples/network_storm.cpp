// Robustness under a mid-run bandwidth storm: an ISP throttling episode
// cuts the pipe to 25% for twenty minutes while large documents are in
// flight. The Greedy scheduler's transient-bandwidth decisions leave jobs
// stranded behind the storm; the Order Preserving slack rule absorbs it.
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "sla/metrics.hpp"

int main() {
  using namespace cbs;

  auto configure = [](core::SchedulerKind kind) {
    harness::Scenario s = harness::make_scenario(
        kind, workload::SizeBucket::kLargeBiased, /*seed=*/99);
    // The storm: both directions throttled to 25% from t=10min to t=30min.
    s.ec_sites[0].uplink.throttles = {{600.0, 1800.0, 0.25}};
    s.ec_sites[0].downlink.throttles = {{600.0, 1800.0, 0.25}};
    s.name = std::string(core::to_string(kind)) + "/storm";
    return s;
  };

  std::printf("=== network storm: 25%% throttle from t=600s to t=1800s ===\n\n");
  std::printf("%-20s %10s %9s %12s %14s\n", "scheduler", "makespan", "burst",
              "p95 peak", "avg ordered MB");

  std::vector<harness::RunResult> results;
  for (const auto kind :
       {core::SchedulerKind::kIcOnly, core::SchedulerKind::kGreedy,
        core::SchedulerKind::kOrderPreserving}) {
    const auto r = harness::run_scenario(configure(kind));
    const auto orderliness = sla::compute_orderliness(r.outcomes, 120.0);
    std::printf("%-20s %9.1fs %9.2f %11.1fs %14.1f\n",
                r.report.scheduler.c_str(), r.report.makespan_seconds,
                r.report.burst_ratio, orderliness.p95_frontier_push,
                r.report.oo_time_averaged_mb);
    results.push_back(std::move(r));
  }

  const auto& greedy = results[1];
  const auto& op = results[2];
  std::printf(
      "\nthe storm's signature: greedy jobs caught mid-transfer block the\n"
      "in-order consumer; Op's slack admission had already bounded exposure.\n");
  std::printf("ordered-data availability (Op - Greedy) during the storm:\n");
  for (double t = 600.0; t <= 2400.0; t += 300.0) {
    const double diff =
        op.oo_series.value_at(t) - greedy.oo_series.value_at(t);
    std::printf("  t=%5.0fs  %+9.1f MB\n", t, diff);
  }
  return 0;
}
