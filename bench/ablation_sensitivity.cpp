// Ablations over the design choices DESIGN.md calls out:
//
//  (a) estimation-error sensitivity (§IV.D: "errors are common in this
//      domain"): sweep the ground truth's noise sigma — more noise means a
//      worse QRSM — and watch makespan and ordering degrade, with the
//      Order Preserving scheduler degrading more gracefully than Greedy;
//  (b) the slack safety margin τ: 0 maximizes bursting but exposes the
//      schedule to estimate errors; large τ forfeits EC capacity. The
//      sweep shows the trade-off the paper's §IV motivates.
//
// Flags: --seeds a,b,c --threads N. All four ablations are one experiment
// plan — every (variant, seed) cell runs concurrently on the thread pool
// and folds into its variant's Summary afterwards.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "sla/metrics.hpp"
#include "stats/aggregate.hpp"

namespace {

using namespace cbs;

double p95_peak(const harness::RunResult& r) {
  return sla::compute_orderliness(r.outcomes, 120.0).p95_frontier_push;
}

}  // namespace

int main(int argc, char** argv) try {
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const std::vector<std::uint64_t> seeds =
      harness::cli::seeds_from_args(args, {42, 7, 1337});

  const std::vector<double> sigmas = {0.0, 0.18, 0.40};
  const std::vector<double> taus = {0.0, 30.0, 120.0, 300.0, 600.0};
  const std::vector<core::SchedulerKind> ab_kinds = {
      core::SchedulerKind::kGreedy, core::SchedulerKind::kOrderPreserving};
  const std::vector<core::SchedulerKind> baseline_kinds = {
      core::SchedulerKind::kRandom, core::SchedulerKind::kGreedy,
      core::SchedulerKind::kOrderPreserving};

  auto large_scenario = [](core::SchedulerKind kind, std::uint64_t seed) {
    return harness::make_scenario(kind, workload::SizeBucket::kLargeBiased,
                                  seed);
  };
  auto variant_name = [](const std::string& prefix, const std::string& rest) {
    return prefix + "/" + rest;
  };

  // One flat plan covering all four ablations; names key the aggregation.
  std::vector<harness::Scenario> cells;
  for (const std::uint64_t seed : seeds) {
    for (const double sigma : sigmas) {
      for (const auto kind : ab_kinds) {
        harness::Scenario s = large_scenario(kind, seed);
        s.truth.noise_sigma = sigma;
        char label[64];
        std::snprintf(label, sizeof(label), "sigma=%.2f", sigma);
        s.name = variant_name(label, std::string(core::to_string(kind)));
        cells.push_back(std::move(s));
      }
    }
    for (const double tau : taus) {
      harness::Scenario s =
          large_scenario(core::SchedulerKind::kOrderPreserving, seed);
      s.params.slack_safety_margin = tau;
      char label[64];
      std::snprintf(label, sizeof(label), "tau=%.0f", tau);
      s.name = label;
      cells.push_back(std::move(s));
    }
    for (const auto kind : baseline_kinds) {
      harness::Scenario s = large_scenario(kind, seed);
      s.name = variant_name("baseline", std::string(core::to_string(kind)));
      cells.push_back(std::move(s));
    }
    for (const auto est :
         {core::EstimatorKind::kQrsm, core::EstimatorKind::kOracle}) {
      for (const auto kind : ab_kinds) {
        harness::Scenario s = large_scenario(kind, seed);
        s.estimator = est;
        s.name = variant_name(
            est == core::EstimatorKind::kQrsm ? "qrsm" : "oracle",
            std::string(core::to_string(kind)));
        cells.push_back(std::move(s));
      }
    }
  }

  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(std::move(cells)), opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  using harness::RunResult;
  const auto makespan = harness::group_by_name(
      results, [](const RunResult& r) { return r.report.makespan_seconds; });
  const auto peak = harness::group_by_name(results, p95_peak);
  const auto burst = harness::group_by_name(
      results, [](const RunResult& r) { return r.report.burst_ratio; });
  const auto oo_avg = harness::group_by_name(
      results, [](const RunResult& r) { return r.report.oo_time_averaged_mb; });

  std::printf("=== ablation (a): estimation-error sensitivity ===\n");
  std::printf("(large bucket, %zu seeds; sigma is the lognormal noise of the\n"
              " true runtime around the QRSM-learnable expectation)\n\n",
              seeds.size());
  harness::TextTable ta({"sigma", "scheduler", "makespan", "p95 peak", "burst"});
  for (const double sigma : sigmas) {
    for (const auto kind : ab_kinds) {
      char label[64];
      std::snprintf(label, sizeof(label), "sigma=%.2f", sigma);
      const std::string key =
          variant_name(label, std::string(core::to_string(kind)));
      ta.row()
          .num(sigma, 2)
          .cell(core::to_string(kind))
          .num(makespan.at(key).mean(), 0, "s")
          .num(peak.at(key).mean(), 1, "s")
          .num(burst.at(key).mean(), 2);
    }
  }
  ta.print();

  std::printf("\n=== ablation (b): slack safety margin tau ===\n");
  std::printf("(Order Preserving, large bucket, %zu seeds)\n\n", seeds.size());
  harness::TextTable tb({"tau", "makespan", "burst", "p95 peak", "avg OO (MB)"});
  for (const double tau : taus) {
    char key[64];
    std::snprintf(key, sizeof(key), "tau=%.0f", tau);
    tb.row()
        .num(tau, 0, "s")
        .num(makespan.at(key).mean(), 0, "s")
        .num(burst.at(key).mean(), 2)
        .num(peak.at(key).mean(), 1, "s")
        .num(oo_avg.at(key).mean(), 0);
  }
  tb.print();

  std::printf("\n=== ablation (c): learned schedulers vs the random baseline ===\n");
  std::printf("(§III: even imprecise estimates beat a model-free scheduler)\n\n");
  harness::TextTable tc({"scheduler", "makespan", "p95 peak", "avg OO (MB)"});
  for (const auto kind : baseline_kinds) {
    const std::string key =
        variant_name("baseline", std::string(core::to_string(kind)));
    tc.row()
        .cell(core::to_string(kind))
        .num(makespan.at(key).mean(), 0, "s")
        .num(peak.at(key).mean(), 1, "s")
        .num(oo_avg.at(key).mean(), 0);
  }
  tc.print();

  std::printf("\n=== ablation (d): oracle vs learned estimates ===\n");
  harness::TextTable td({"estimator", "scheduler", "makespan", "p95 peak"});
  for (const auto est :
       {core::EstimatorKind::kQrsm, core::EstimatorKind::kOracle}) {
    for (const auto kind : ab_kinds) {
      const char* est_name =
          est == core::EstimatorKind::kQrsm ? "qrsm" : "oracle";
      const std::string key =
          variant_name(est_name, std::string(core::to_string(kind)));
      td.row()
          .cell(est_name)
          .cell(core::to_string(kind))
          .num(makespan.at(key).mean(), 0, "s")
          .num(peak.at(key).mean(), 1, "s");
    }
  }
  td.print();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
