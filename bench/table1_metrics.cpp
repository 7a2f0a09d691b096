// Reproduces the paper's Table I: IC-Util, EC-Util, Burst-ratio and Speedup
// for the Greedy and Order Preserving schedulers on the Large and Uniform
// job-size distributions, averaged over several seeds.
//
// Paper values for reference (shape targets, not absolute):
//            IC-Util        EC-Util        Burst-ratio    Speedup
//            Greedy  Op     Greedy  Op     Greedy  Op     Greedy  Op
//   Large    78.6    81     45.8    44     0.19    0.17   6.73    6.76
//   Uniform  82.4    74.4   17.7    46.6   0.17    0.26   5.6     5.6
//
// Flags: --seeds a,b,c --threads N.
#include <cstdio>
#include <iostream>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "sla/report.hpp"
#include "stats/aggregate.hpp"

int main(int argc, char** argv) try {
  using namespace cbs;
  using core::SchedulerKind;
  using workload::SizeBucket;

  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const std::vector<std::uint64_t> seeds =
      harness::cli::seeds_from_args(args, {42, 7, 1337, 2718, 31415});
  std::printf("=== Table I: performance metrics (Greedy vs Op, %zu seeds) ===\n\n",
              seeds.size());

  const harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      seeds, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kLargeBiased, SizeBucket::kUniform});

  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  using harness::RunResult;
  const auto ic_util = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.report.ic_utilization; });
  const auto ec_util = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.report.ec_utilization; });
  const auto burst = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.report.burst_ratio; });
  const auto speedup = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.report.speedup; });
  const auto makespan = harness::reduce_over_seeds(
      plan, results,
      [](const RunResult& r) { return r.report.makespan_seconds; });

  harness::TextTable table({"bucket", "scheduler", "IC-Util", "EC-Util",
                            "Burst", "Speedup", "Makespan"});
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    for (std::size_t k = 0; k < plan.schedulers.size(); ++k) {
      table.row()
          .cell(ic_util.row_labels()[b])
          .cell(ic_util.col_labels()[k])
          .num(ic_util.cell(b, k).mean() * 100.0, 1, "%")
          .num(ec_util.cell(b, k).mean() * 100.0, 1, "%")
          .num(burst.cell(b, k).mean(), 2)
          .num(speedup.cell(b, k).mean(), 2)
          .num(makespan.cell(b, k).mean(), 0, "s");
    }
  }
  table.print();

  std::printf("\npaper shape checks:\n");
  std::printf("  large:   EC-Util substantial for both:  %.1f%% / %.1f%% "
              "(paper ~45%%)\n",
              ec_util.cell(0, 0).mean() * 100.0,
              ec_util.cell(0, 1).mean() * 100.0);
  std::printf("  large:   speedups comparable:            %.2f vs %.2f\n",
              speedup.cell(0, 0).mean(), speedup.cell(0, 1).mean());
  std::printf("  uniform: both schedulers burst (ratios): %.2f / %.2f\n",
              burst.cell(1, 0).mean(), burst.cell(1, 1).mean());
  std::printf("  large speedup >= uniform speedup (Op):   %s (%.2f vs %.2f)\n",
              speedup.cell(0, 1).mean() >= speedup.cell(1, 1).mean() ? "yes"
                                                                     : "NO",
              speedup.cell(0, 1).mean(), speedup.cell(1, 1).mean());

  std::printf("\ncsv (last seed):\n");
  harness::csv::write_reports(std::cout,
                              harness::last_seed_results(plan, results));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
