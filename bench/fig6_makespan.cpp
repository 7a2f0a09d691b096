// Reproduces Fig. 6: makespan comparison of the schedulers. The paper's
// headline: cloud bursting improves makespan ~10% over the IC-only
// baseline, with Greedy and Order Preserving almost equal. Averaged over
// several seeds — single runs carry heavy tail variance from the AR(1)
// bandwidth noise, exactly like single testbed runs.
//
// Flags: --seeds a,b,c --threads N (plus the usual scenario flags).
// Results are identical at any thread count: cells are independently
// seeded and aggregated in plan order.
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

  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const std::vector<std::uint64_t> seeds =
      harness::cli::seeds_from_args(args, {42, 7, 1337, 2718, 31415});

  const harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      seeds,
      {SchedulerKind::kIcOnly, SchedulerKind::kGreedy,
       SchedulerKind::kOrderPreserving, SchedulerKind::kBandwidthSplit},
      {workload::SizeBucket::kLargeBiased});

  std::printf("=== Fig. 6: makespan by scheduler (large bucket, %zu seeds) ===\n\n",
              seeds.size());

  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  const stats::SummaryMatrix makespans = harness::reduce_over_seeds(
      plan, results,
      [](const harness::RunResult& r) { return r.report.makespan_seconds; });

  const double baseline = makespans.cell(0, 0).mean();
  harness::TextTable table({"scheduler", "makespan", "vs IC-only", "stddev"});
  for (std::size_t k = 0; k < makespans.col_labels().size(); ++k) {
    const stats::Summary& s = makespans.cell(0, k);
    table.row()
        .cell(makespans.col_labels()[k])
        .num(s.mean(), 1, "s")
        .num(100.0 * (s.mean() - baseline) / baseline, 1, "%")
        .num(s.stddev(), 1, "s");
  }
  table.print();

  const double greedy = makespans.cell(0, 1).mean();
  const double op = makespans.cell(0, 2).mean();
  std::printf("\npaper shape checks:\n");
  std::printf("  bursting beats IC-only:      %s (best gain %.1f%%)\n",
              greedy < baseline && op < baseline ? "yes" : "NO",
              100.0 * (baseline - std::min(greedy, op)) / baseline);
  std::printf("  Greedy ~= Op on makespan:    %.1f%% apart\n",
              100.0 * std::abs(greedy - op) / op);

  std::printf("\ncsv (last seed):\n");
  harness::csv::write_reports(std::cout,
                              harness::last_seed_results(plan, results));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
