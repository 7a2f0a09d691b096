// Reproduces Fig. 7: per-job completion times (in queue order) for the
// uniform and small job-size distributions, Greedy vs Order Preserving.
// The paper's reading: Greedy shows more and taller "high peaks" (a job
// completing after its successors, forcing the in-order consumer to wait),
// while Op shows more valleys (results ready before needed — harmless).
//
// Flags: --seed S --threads N --csv. The two buckets x two schedulers run
// as one experiment plan; the paired workload per bucket is preserved
// because pairing only depends on the seed + workload fields.
#include <cstdio>
#include <iostream>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "sla/metrics.hpp"

namespace {

void report_bucket(const cbs::harness::ExperimentPlan& plan,
                   const std::vector<cbs::harness::CellResult>& results,
                   std::size_t bucket_i, bool emit_csv) {
  using namespace cbs;
  const harness::RunResult& greedy_run =
      *results[plan.grid_index(0, bucket_i, 0)].result;
  const harness::RunResult& op_run =
      *results[plan.grid_index(0, bucket_i, 1)].result;

  std::printf("--- bucket: %s ---\n",
              std::string(workload::to_string(plan.buckets[bucket_i])).c_str());
  for (const harness::RunResult* r : {&greedy_run, &op_run}) {
    const auto stats = sla::compute_orderliness(r->outcomes, 120.0);
    std::printf(
        "%-18s jobs=%4zu inversions=%5zu max-peak=%7.1fs p95-peak=%6.1fs "
        "peaks>120s=%zu\n",
        r->report.scheduler.c_str(), r->outcomes.size(), stats.inversions,
        stats.max_frontier_push, stats.p95_frontier_push,
        stats.pushes_over_threshold);
  }
  const auto greedy = sla::compute_orderliness(greedy_run.outcomes, 120.0);
  const auto op = sla::compute_orderliness(op_run.outcomes, 120.0);
  std::printf(
      "shape check: Greedy peaks taller than Op (p95): %s (%.1fs vs %.1fs)\n\n",
      greedy.p95_frontier_push >= op.p95_frontier_push ? "yes" : "NO",
      greedy.p95_frontier_push, op.p95_frontier_push);

  for (const harness::RunResult* r : {&greedy_run, &op_run}) {
    std::printf("completion-time profile (%s, y: completion s, x: job id):\n",
                r->report.scheduler.c_str());
    std::printf("%s\n", harness::ascii_chart(
                            harness::completion_by_seq(*r), 10, 80).c_str());
  }

  if (emit_csv) {
    for (const harness::RunResult* r : {&greedy_run, &op_run}) {
      std::printf("csv (%s):\n", r->scenario.name.c_str());
      harness::csv::write_completion_series(std::cout, *r);
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cbs;
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const auto seed = harness::cli::seed_from_args(args, 42);

  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {seed},
      {core::SchedulerKind::kGreedy, core::SchedulerKind::kOrderPreserving},
      {workload::SizeBucket::kUniform, workload::SizeBucket::kSmallBiased});

  std::printf("=== Fig. 7: completion times, uniform & small buckets ===\n\n");
  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    report_bucket(plan, results, b, args.has("csv"));
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
