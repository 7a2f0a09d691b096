// Tests for the parallel experiment runner (harness/runner.hpp): plan
// construction, determinism across thread counts, failure isolation,
// result ordering and the aggregation reducers.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"

namespace {

using namespace cbs;
using core::SchedulerKind;
using workload::SizeBucket;

harness::ExperimentPlan small_grid() {
  harness::Scenario base;
  base.num_batches = 2;  // keep the simulated runs short
  return harness::ExperimentPlan::grid(
      {42, 7}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform}, base);
}

TEST(ExperimentPlanTest, GridIsSeedMajorThenBucketThenScheduler) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1, 2}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform, SizeBucket::kLargeBiased});
  const auto cells = plan.cells();
  ASSERT_EQ(cells.size(), 8u);
  ASSERT_EQ(plan.cell_count(), 8u);
  // Cell 0: first seed, first bucket, first scheduler.
  EXPECT_EQ(cells[0].scenario.seed, 1u);
  EXPECT_EQ(cells[0].scenario.scheduler, SchedulerKind::kGreedy);
  EXPECT_EQ(cells[0].scenario.bucket, SizeBucket::kUniform);
  // Scheduler is the fastest-moving axis.
  EXPECT_EQ(cells[1].scenario.scheduler, SchedulerKind::kOrderPreserving);
  EXPECT_EQ(cells[1].scenario.bucket, SizeBucket::kUniform);
  // Then the bucket axis.
  EXPECT_EQ(cells[2].scenario.bucket, SizeBucket::kLargeBiased);
  // Seed is the slowest-moving axis.
  EXPECT_EQ(cells[4].scenario.seed, 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(plan.grid_index(cells[i].seed_index, cells[i].bucket_index,
                              cells[i].scheduler_index),
              i);
  }
  // Names do not embed the seed, so group_by_name folds across seeds.
  EXPECT_EQ(cells[0].scenario.name, cells[4].scenario.name);
}

TEST(ExperimentPlanTest, ExtrasAppendAfterGridWithoutAxes) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1}, {SchedulerKind::kGreedy}, {SizeBucket::kUniform});
  harness::Scenario extra;
  extra.name = "extra";
  plan.extra.push_back(extra);
  const auto cells = plan.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].scenario.name, "extra");
  EXPECT_EQ(cells[1].seed_index, harness::PlanCell::kNoAxis);
  EXPECT_EQ(cells[1].scheduler_index, harness::PlanCell::kNoAxis);
}

TEST(RunnerTest, IdenticalResultsAtAnyThreadCount) {
  const harness::ExperimentPlan plan = small_grid();

  auto run_at = [&plan](std::size_t threads) {
    harness::RunnerOptions opts;
    opts.threads = threads;
    return harness::run_plan(plan, opts);
  };
  const auto r1 = run_at(1);
  const auto r2 = run_at(2);
  const auto r8 = run_at(8);

  ASSERT_EQ(r1.size(), plan.cell_count());
  ASSERT_EQ(harness::failed_cells(r1), 0u);
  for (const auto* other : {&r2, &r8}) {
    ASSERT_EQ(other->size(), r1.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
      const auto& a = *r1[i].result;
      const auto& b = *(*other)[i].result;
      EXPECT_EQ((*other)[i].cell.index, i);
      EXPECT_EQ(a.scenario.name, b.scenario.name);
      EXPECT_EQ(a.outcomes.size(), b.outcomes.size());
      EXPECT_EQ(a.events_processed, b.events_processed);
      EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
      EXPECT_EQ(a.report.speedup, b.report.speedup);
      EXPECT_EQ(a.report.oo_time_averaged_mb, b.report.oo_time_averaged_mb);
    }
  }
}

// Lookahead cells run their candidates' rollouts on a pool of their own,
// so plan workers and rollout workers nest. The results must not depend on
// either thread count.
TEST(RunnerTest, NestedLookaheadPoolsGiveIdenticalResults) {
  harness::Scenario base;
  base.num_batches = 12;
  base.log_threshold = sim::LogLevel::kOff;
  base.faults.ec_vm_mtbf = 1200.0;
  base.faults.retraction_deadline_factor = 3.0;
  const harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {1, 2}, {SchedulerKind::kLookahead, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform}, base);

  auto run_at = [&plan](std::size_t threads) {
    harness::RunnerOptions opts;
    opts.threads = threads;
    return harness::run_plan(plan, opts);
  };
  const auto r1 = run_at(1);
  const auto r4 = run_at(4);
  ASSERT_EQ(harness::failed_cells(r1), 0u);
  ASSERT_EQ(harness::failed_cells(r4), 0u);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    const harness::RunResult& a = *r1[i].result;
    const harness::RunResult& b = *r4[i].result;
    EXPECT_EQ(a.sim_end_time, b.sim_end_time) << i;
    EXPECT_EQ(a.events_processed, b.events_processed) << i;
    EXPECT_EQ(a.pull_backs, b.pull_backs) << i;
    EXPECT_EQ(a.push_outs, b.push_outs) << i;
    EXPECT_EQ(a.peak_store_bytes, b.peak_store_bytes) << i;
    EXPECT_EQ(a.qrsm_r_squared, b.qrsm_r_squared) << i;
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << i;
    for (std::size_t j = 0; j < a.outcomes.size(); ++j) {
      const auto& x = a.outcomes[j];
      const auto& y = b.outcomes[j];
      EXPECT_EQ(x.seq_id, y.seq_id) << i << "/" << j;
      EXPECT_EQ(x.completed, y.completed) << i << "/" << j;
      EXPECT_EQ(x.placement, y.placement) << i << "/" << j;
    }
    ASSERT_EQ(a.oo_series.size(), b.oo_series.size()) << i;
    for (std::size_t k = 0; k < a.oo_series.size(); ++k) {
      EXPECT_EQ(a.oo_series.at(k).value, b.oo_series.at(k).value) << i;
    }
    EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds) << i;
    EXPECT_EQ(a.report.oo_time_averaged_mb, b.report.oo_time_averaged_mb) << i;
    EXPECT_EQ(a.tickets.met, b.tickets.met) << i;
    EXPECT_EQ(a.tickets.max_lateness, b.tickets.max_lateness) << i;
    EXPECT_EQ(a.cost.cloud_total(), b.cost.cloud_total()) << i;
    EXPECT_EQ(a.faults.ec_crashes, b.faults.ec_crashes) << i;
    EXPECT_EQ(a.faults.retractions, b.faults.retractions) << i;
    EXPECT_EQ(a.faults.wasted_compute_seconds, b.faults.wasted_compute_seconds)
        << i;
  }
}

// A throwing cell must surface as a failed CellResult with the exception
// text, while its siblings complete normally.
TEST(RunnerTest, ThrowingCellDoesNotAbortSiblings) {
  std::vector<harness::Scenario> list;
  for (int i = 0; i < 6; ++i) {
    harness::Scenario s;
    s.name = i == 3 ? "bad" : "good";
    s.seed = static_cast<std::uint64_t>(i);
    list.push_back(s);
  }
  harness::RunnerOptions opts;
  opts.threads = 4;
  opts.run = [](const harness::Scenario& s) -> harness::RunResult {
    if (s.name == "bad") throw std::runtime_error("injected fault");
    harness::RunResult r;
    r.scenario = s;
    r.sim_end_time = 1.0;
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(harness::failed_cells(results), 1u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].ok());
      EXPECT_EQ(results[i].error, "injected fault");
      EXPECT_FALSE(results[i].result.has_value());
    } else {
      EXPECT_TRUE(results[i].ok());
      EXPECT_EQ(results[i].result->scenario.name, "good");
    }
  }
}

// Every bench reports failed cells through one helper: one line per failed
// cell, in plan order, and the count it returns is what the bench exits on.
TEST(RunnerTest, ReportFailedCellsNamesEachFailureInPlanOrder) {
  std::vector<harness::Scenario> list(5);
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i].seed = 100 + i;
    list[i].name = "cell-" + std::to_string(i);
  }
  harness::RunnerOptions opts;
  opts.threads = 3;
  opts.run = [](const harness::Scenario& s) -> harness::RunResult {
    if (s.seed % 2 == 1) throw std::runtime_error("boom " + s.name);
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  testing::internal::CaptureStderr();
  const std::size_t failed = harness::report_failed_cells(results);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(failed, 2u);
  EXPECT_EQ(err,
            "cell cell-1 (seed 101) failed: boom cell-1\n"
            "cell cell-3 (seed 103) failed: boom cell-3\n");

  std::vector<harness::CellResult> all_ok(2);
  all_ok[0].result.emplace();
  all_ok[1].result.emplace();
  testing::internal::CaptureStderr();
  EXPECT_EQ(harness::report_failed_cells(all_ok), 0u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// Result order must follow the plan, not completion: early cells are made
// slow so later cells finish first on a multi-thread pool.
TEST(RunnerTest, ResultOrderIndependentOfCompletionOrder) {
  std::vector<harness::Scenario> list(8);
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i].seed = i;
    list[i].name = "cell-" + std::to_string(i);
  }
  harness::RunnerOptions opts;
  opts.threads = 4;
  opts.run = [](const harness::Scenario& s) {
    // Earlier cells sleep longer, inverting the completion order.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<std::int64_t>(5 * (8 - s.seed))));
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  ASSERT_EQ(results.size(), list.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell.index, i);
    EXPECT_EQ(results[i].result->scenario.name, "cell-" + std::to_string(i));
  }
}

TEST(RunnerTest, ReduceOverSeedsFoldsTheSeedAxis) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {10, 20, 30}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform});
  harness::RunnerOptions opts;
  opts.threads = 2;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    // A fake metric that separates the axes: seed + a scheduler offset.
    r.sim_end_time =
        static_cast<double>(s.seed) +
        (s.scheduler == SchedulerKind::kOrderPreserving ? 1000.0 : 0.0);
    return r;
  };
  const auto results = harness::run_plan(plan, opts);
  const auto matrix = harness::reduce_over_seeds(
      plan, results,
      [](const harness::RunResult& r) { return r.sim_end_time; });
  ASSERT_EQ(matrix.row_labels().size(), 1u);
  ASSERT_EQ(matrix.col_labels().size(), 2u);
  EXPECT_EQ(matrix.cell(0, 0).count(), 3u);
  EXPECT_DOUBLE_EQ(matrix.cell(0, 0).mean(), 20.0);
  EXPECT_DOUBLE_EQ(matrix.cell(0, 1).mean(), 1020.0);
}

TEST(RunnerTest, GroupByNameFoldsSeedsAndKeepsFirstSeenOrder) {
  std::vector<harness::Scenario> list;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const char* name : {"alpha", "beta"}) {
      harness::Scenario s;
      s.seed = seed;
      s.name = name;
      list.push_back(s);
    }
  }
  harness::RunnerOptions opts;
  opts.threads = 2;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    r.sim_end_time = static_cast<double>(s.seed);
    return r;
  };
  const auto results =
      harness::run_plan(harness::ExperimentPlan::list(list), opts);
  const auto grouped = harness::group_by_name(
      results, [](const harness::RunResult& r) { return r.sim_end_time; });
  ASSERT_EQ(grouped.keys().size(), 2u);
  EXPECT_EQ(grouped.keys()[0], "alpha");
  EXPECT_EQ(grouped.keys()[1], "beta");
  EXPECT_EQ(grouped.at("alpha").count(), 3u);
  EXPECT_DOUBLE_EQ(grouped.at("alpha").mean(), 2.0);
}

TEST(RunnerTest, LastSeedResultsPicksTheFinalSeedRow) {
  harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      {10, 20}, {SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving},
      {SizeBucket::kUniform});
  harness::RunnerOptions opts;
  opts.run = [](const harness::Scenario& s) {
    harness::RunResult r;
    r.scenario = s;
    return r;
  };
  const auto results = harness::run_plan(plan, opts);
  const auto last = harness::last_seed_results(plan, results);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last[0].scenario.seed, 20u);
  EXPECT_EQ(last[1].scenario.seed, 20u);
  EXPECT_EQ(last[0].scenario.scheduler, SchedulerKind::kGreedy);
  EXPECT_EQ(last[1].scenario.scheduler, SchedulerKind::kOrderPreserving);
}

TEST(CliSeedsTest, ParseSeedListAndFallback) {
  EXPECT_EQ(harness::cli::parse_seed_list("1,2,42"),
            (std::vector<std::uint64_t>{1, 2, 42}));
  EXPECT_THROW(harness::cli::parse_seed_list("1,,2"), std::runtime_error);
  EXPECT_THROW(harness::cli::parse_seed_list("abc"), std::invalid_argument);

  const char* argv1[] = {"prog", "--seeds", "5,6"};
  harness::cli::Args with(3, const_cast<char**>(argv1),
                          harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::seeds_from_args(with, {1, 2, 3}),
            (std::vector<std::uint64_t>{5, 6}));

  const char* argv2[] = {"prog"};
  harness::cli::Args without(1, const_cast<char**>(argv2),
                             harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::seeds_from_args(without, {1, 2, 3}),
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(CliSeedsTest, ThreadsFlagDefaultsToZero) {
  const char* argv1[] = {"prog", "--threads", "4"};
  harness::cli::Args with(3, const_cast<char**>(argv1),
                          harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::threads_from_args(with), 4u);

  const char* argv2[] = {"prog"};
  harness::cli::Args without(1, const_cast<char**>(argv2),
                             harness::cli::scenario_flags());
  EXPECT_EQ(harness::cli::threads_from_args(without), 0u);
}

}  // namespace
