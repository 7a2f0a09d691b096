// Reproduces Fig. 9: the Out-of-Order metric (ordered data output
// available, 2-minute sampling) for the large bucket under HIGH network
// variation. The paper: the Order Preserving scheduler's OO metric
// dominates Greedy's — downstream stages can consume at higher rates.
//
// Flags: --seed S --threads N; a positional argument is a gnuplot prefix.
#include <cstdio>
#include <iostream>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/plot.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "sla/oo_metric.hpp"

int main(int argc, char** argv) try {
  using namespace cbs;
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const auto seed = harness::cli::seed_from_args(args, 42);
  std::printf(
      "=== Fig. 9: OO metric, large bucket, high network variation ===\n\n");

  harness::Scenario base;
  base.high_network_variation = true;
  base.oo_tolerance = 0;  // Fig. 9 uses the strict metric
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {seed},
      {core::SchedulerKind::kGreedy, core::SchedulerKind::kOrderPreserving},
      {workload::SizeBucket::kLargeBiased}, base);

  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto cell_results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(cell_results) != 0) return 1;
  const std::vector<harness::RunResult> results =
      harness::last_seed_results(plan, cell_results);

  const auto& greedy = results[0];
  const auto& op = results[1];
  const double oo_interval = greedy.scenario.oo_sampling_interval;

  // Dominance fraction: at what share of sampling instants does Op offer at
  // least as much ordered data as Greedy?
  std::size_t op_ahead = 0;
  std::size_t samples = 0;
  const double end = std::max(greedy.sim_end_time, op.sim_end_time);
  for (double t = 0.0; t <= end; t += oo_interval) {
    ++samples;
    if (op.oo_series.value_at(t) >= greedy.oo_series.value_at(t)) ++op_ahead;
  }
  std::printf("sampling interval: %.0fs, tolerance t_l = %llu\n", oo_interval,
              static_cast<unsigned long long>(greedy.scenario.oo_tolerance));
  std::printf("time-averaged ordered data: Greedy %.0f MB, Op %.0f MB\n",
              greedy.report.oo_time_averaged_mb, op.report.oo_time_averaged_mb);
  std::printf("Op >= Greedy at %zu of %zu sampling instants (%.0f%%)\n\n",
              op_ahead, samples,
              100.0 * static_cast<double>(op_ahead) /
                  static_cast<double>(samples));
  std::printf("shape check: Op OO metric above Greedy: %s\n\n",
              op.report.oo_time_averaged_mb > greedy.report.oo_time_averaged_mb
                  ? "yes"
                  : "NO");

  // §V.B.2's tolerance trade-off: "increasing the tolerance limit increases
  // the data output availability, but at the cost of more out of order
  // completions" — the time-averaged ordered data must grow with t_l.
  std::printf("tolerance sweep (Greedy run, time-averaged ordered MB):\n");
  std::printf("%6s %14s\n", "t_l", "avg ordered MB");
  double prev = -1.0;
  bool monotone = true;
  for (const std::uint64_t tol : {0ull, 2ull, 4ull, 8ull, 16ull}) {
    cbs::sla::OoMetricCalculator oo(greedy.outcomes);
    const auto ts = oo.ordered_mb_series(oo_interval, tol);
    const double avg = ts.time_average(0.0, ts.back().time);
    std::printf("%6llu %14.1f\n", static_cast<unsigned long long>(tol), avg);
    if (avg < prev) monotone = false;
    prev = avg;
  }
  std::printf("shape check: availability grows with tolerance: %s\n\n",
              monotone ? "yes" : "NO");

  // Optional: emit gnuplot files (fig9_oo_metric <prefix>).
  if (!args.positional().empty()) {
    harness::plot::Figure figure;
    figure.title = "Fig. 9: ordered data availability (large, high variation)";
    figure.xlabel = "time (s)";
    figure.ylabel = "ordered output (MB)";
    figure.series.push_back(
        harness::plot::from_timeseries("greedy", greedy.oo_series));
    figure.series.push_back(
        harness::plot::from_timeseries("order-preserving", op.oo_series));
    const std::string gp =
        harness::plot::write_gnuplot(args.positional().front(), figure);
    std::printf("gnuplot script written: %s\n\n", gp.c_str());
  }

  std::printf("csv:\n");
  harness::csv::write_oo_overlay(std::cout, results, oo_interval);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
