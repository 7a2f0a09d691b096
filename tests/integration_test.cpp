// End-to-end scenario runs across the full scheduler x bucket grid, using
// the same harness as the benches. Parameterized (TEST_P) so every cell of
// the paper's experiment grid is exercised as its own test case.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "sla/metrics.hpp"

namespace {

using namespace cbs;
using core::SchedulerKind;
using workload::SizeBucket;

harness::Scenario small_scenario(SchedulerKind kind, SizeBucket bucket,
                                 std::uint64_t seed = 42,
                                 bool high_var = false) {
  harness::Scenario s = harness::make_scenario(kind, bucket, seed, high_var);
  s.num_batches = 3;  // keep each grid cell fast
  return s;
}

class GridTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, SizeBucket>> {};

TEST_P(GridTest, RunCompletesWithValidInvariants) {
  const auto [kind, bucket] = GetParam();
  const auto result = harness::run_scenario(small_scenario(kind, bucket));

  // Every job completed exactly once with ordered timestamps —
  // run_scenario itself throws on violations; assert the headline numbers.
  EXPECT_GT(result.outcomes.size(), 10u);
  EXPECT_GT(result.report.makespan_seconds, 0.0);
  // The small bucket is arrival-limited (tiny jobs, mostly idle machines),
  // so its speedup can drop below 1; the other buckets keep the system busy.
  EXPECT_GT(result.report.speedup,
            bucket == SizeBucket::kSmallBiased ? 0.1 : 1.0);
  EXPECT_GE(result.report.ic_utilization, 0.0);
  EXPECT_LE(result.report.ic_utilization, 1.0 + 1e-9);
  EXPECT_GE(result.report.ec_utilization, 0.0);
  EXPECT_LE(result.report.ec_utilization, 1.0 + 1e-9);
  EXPECT_GE(result.report.burst_ratio, 0.0);
  EXPECT_LE(result.report.burst_ratio, 1.0);

  if (kind == SchedulerKind::kIcOnly) {
    EXPECT_DOUBLE_EQ(result.report.burst_ratio, 0.0);
    EXPECT_DOUBLE_EQ(result.report.ec_utilization, 0.0);
  }

  // Makespan can never beat perfect parallelism over all machines.
  const double total_machines = 8.0 + 2.0;
  EXPECT_GE(result.report.makespan_seconds,
            sla::sequential_time(result.outcomes) / total_machines);

  // The OO series is monotone and ends at the full output volume.
  double prev = -1.0;
  double total_output = 0.0;
  for (const auto& o : result.outcomes) total_output += o.output_mb;
  for (const auto& p : result.oo_series.points()) {
    EXPECT_GE(p.value, prev);
    prev = p.value;
  }
  EXPECT_NEAR(result.oo_series.back().value, total_output, 1e-6);
}

TEST_P(GridTest, DeterministicReplay) {
  const auto [kind, bucket] = GetParam();
  const auto a = harness::run_scenario(small_scenario(kind, bucket));
  const auto b = harness::run_scenario(small_scenario(kind, bucket));
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_DOUBLE_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchedulerBucketGrid, GridTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kIcOnly,
                                         SchedulerKind::kGreedy,
                                         SchedulerKind::kOrderPreserving,
                                         SchedulerKind::kBandwidthSplit),
                       ::testing::Values(SizeBucket::kSmallBiased,
                                         SizeBucket::kUniform,
                                         SizeBucket::kLargeBiased)),
    [](const auto& param_info) {
      std::string name =
          std::string(core::to_string(std::get<0>(param_info.param))) + "_" +
          std::string(workload::to_string(std::get<1>(param_info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest parameter names must be identifiers
      }
      return name;
    });

TEST(IntegrationTest, DifferentSeedsGiveDifferentRuns) {
  const auto a = harness::run_scenario(
      small_scenario(SchedulerKind::kOrderPreserving, SizeBucket::kUniform, 1));
  const auto b = harness::run_scenario(
      small_scenario(SchedulerKind::kOrderPreserving, SizeBucket::kUniform, 2));
  EXPECT_NE(a.report.makespan_seconds, b.report.makespan_seconds);
}

TEST(IntegrationTest, SameWorkloadAcrossSchedulers) {
  // Paired comparisons: with one seed, every scheduler faces the same
  // arrivals (count may differ only through chunking, so compare original
  // document ids and total input volume of non-chunk jobs).
  const std::vector<harness::RunResult> results = {
      harness::run_scenario(
          small_scenario(SchedulerKind::kIcOnly, SizeBucket::kUniform)),
      harness::run_scenario(
          small_scenario(SchedulerKind::kGreedy, SizeBucket::kUniform))};
  double vol_ic = 0.0;
  double vol_greedy = 0.0;
  for (const auto& o : results[0].outcomes) vol_ic += o.input_mb;
  for (const auto& o : results[1].outcomes) vol_greedy += o.input_mb;
  EXPECT_NEAR(vol_ic, vol_greedy, 1e-6);  // greedy never chunks
  EXPECT_EQ(results[0].outcomes.size(), results[1].outcomes.size());
}

TEST(IntegrationTest, HighVariationKeepsInvariants) {
  const auto result = harness::run_scenario(small_scenario(
      SchedulerKind::kOrderPreserving, SizeBucket::kLargeBiased, 42, true));
  EXPECT_GT(result.outcomes.size(), 10u);
  EXPECT_GT(result.report.speedup, 1.0);
}

TEST(IntegrationTest, OracleEstimatorRunsCleanly) {
  auto s = small_scenario(SchedulerKind::kOrderPreserving, SizeBucket::kUniform);
  s.estimator = core::EstimatorKind::kOracle;
  const auto result = harness::run_scenario(s);
  EXPECT_TRUE(std::isnan(result.qrsm_r_squared));
  EXPECT_GT(result.report.speedup, 1.0);
}

TEST(IntegrationTest, ReschedulerKeepsOutcomesValid) {
  auto s = small_scenario(SchedulerKind::kOrderPreserving,
                          SizeBucket::kLargeBiased);
  s.enable_rescheduler = true;
  const auto result = harness::run_scenario(s);  // throws if invalid
  EXPECT_GT(result.outcomes.size(), 10u);
}

TEST(IntegrationTest, CompletionBySeqCoversAllJobs) {
  const auto result = harness::run_scenario(
      small_scenario(SchedulerKind::kGreedy, SizeBucket::kUniform));
  const auto series = harness::completion_by_seq(result);
  EXPECT_EQ(series.size(), result.outcomes.size());
  for (double c : series) EXPECT_GT(c, 0.0);
}

TEST(IntegrationTest, ZeroPretrainStillWorks) {
  auto s = small_scenario(SchedulerKind::kOrderPreserving, SizeBucket::kUniform);
  s.pretrain_samples = 0;  // cold-start QRSM: mean fallback until fitted
  const auto result = harness::run_scenario(s);
  EXPECT_GT(result.outcomes.size(), 10u);
}

TEST(IntegrationTest, BytesConservedAcrossTheInterCloudPath) {
  // Every bursted input crosses the uplink once; every bursted output the
  // downlink once; probes add probe_bytes per firing on each link.
  auto s = small_scenario(SchedulerKind::kGreedy, SizeBucket::kUniform);
  const auto result = harness::run_scenario(s);
  double bursted_in = 0.0;
  for (const auto& o : result.outcomes) {
    if (o.bursted()) bursted_in += o.input_mb;
  }
  // The harness does not expose the link object after the run; recompute
  // via a fresh controller-level run in ControllerTest instead. Here we
  // check the outcome-level invariant: bursted inputs are a subset of total.
  double total_in = 0.0;
  for (const auto& o : result.outcomes) total_in += o.input_mb;
  EXPECT_LE(bursted_in, total_in);
}

}  // namespace
