// Property-style parameterized sweeps over randomized inputs: invariants
// that must hold for every seed, not just the golden one.
#include <gtest/gtest.h>

#include "closure_events.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "net/link.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "sla/oo_metric.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cbs;
using cbs::sim::RngStream;
using cbs::sim::Simulation;

// ---- Link conservation under random storms --------------------------------

class LinkStormTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkStormTest, ConservesBytesUnderRandomTraffic) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  net::LinkConfig cfg;
  cfg.base_rate = 0.9e6;
  cfg.per_connection_cap = 0.3e6;
  cfg.noise_sigma = 0.4;
  cfg.noise_rho = 0.85;
  cfg.noise_step = 15.0;
  cfg.profile = net::DiurnalProfile::business_pipe();
  cfg.setup_latency = 0.5;
  cbs::testing::RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, cfg, RngStream(GetParam()).substream("link"));

  RngStream rng(GetParam());
  double submitted = 0.0;
  std::size_t count = 0;
  for (int i = 0; i < 60; ++i) {
    const double bytes = rng.uniform(0.05e6, 40.0e6);
    const double when = rng.uniform(0.0, 2000.0);
    const int threads = static_cast<int>(rng.uniform_int(1, 8));
    submitted += bytes;
    ++count;
    events.at(when, [&link, bytes, threads] {
      link.submit(bytes, threads, 0, 0);
    });
  }
  sim.run();
  const std::vector<net::TransferRecord> completed = owner.transfer_records();
  EXPECT_NEAR(link.total_bytes_delivered(), submitted,
              1e-6 * submitted + 1.0);
  EXPECT_EQ(completed.size(), count);
  EXPECT_EQ(link.active_transfers(), 0u);
  // Completion timestamps are causal.
  for (const auto& rec : completed) {
    EXPECT_GE(rec.started, rec.requested);
    EXPECT_GT(rec.completed, rec.started);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkStormTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- OO metric properties ---------------------------------------------------

class OoPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<sla::JobOutcome> random_outcomes(std::uint64_t seed, std::size_t n) {
  RngStream rng(seed);
  std::vector<sla::JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sla::JobOutcome o;
    o.seq_id = i;
    o.doc_id = i;
    o.completed = rng.uniform(1.0, 1000.0);
    o.output_mb = rng.uniform(1.0, 300.0);
    o.input_mb = o.output_mb;
    o.true_service_seconds = rng.uniform(1.0, 100.0);
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST_P(OoPropertyTest, OrderedMbMonotoneInToleranceAndTime) {
  const auto outcomes = random_outcomes(GetParam(), 60);
  sla::OoMetricCalculator oo(outcomes);
  double prev_time_value = -1.0;
  for (double t = 0.0; t <= 1100.0; t += 50.0) {
    double prev_tol_value = -1.0;
    for (std::uint64_t tol = 0; tol <= 8; tol += 2) {
      const auto s = oo.sample_at(t, tol);
      EXPECT_GE(s.ordered_mb, prev_tol_value);
      prev_tol_value = s.ordered_mb;
    }
    const double strict = oo.sample_at(t, 0).ordered_mb;
    EXPECT_GE(strict, prev_time_value);
    prev_time_value = strict;
  }
}

TEST_P(OoPropertyTest, MaxInOrderNeverExceedsCompletedCount) {
  const auto outcomes = random_outcomes(GetParam(), 60);
  sla::OoMetricCalculator oo(outcomes);
  for (double t = 0.0; t <= 1100.0; t += 100.0) {
    const auto s = oo.sample_at(t, 0);
    // With zero tolerance, m_t equals the count of the completed prefix.
    EXPECT_LE(s.max_in_order, s.completed_count);
  }
}

TEST_P(OoPropertyTest, InversionsBoundedByPairCount) {
  const auto outcomes = random_outcomes(GetParam(), 60);
  const auto stats = sla::compute_orderliness(outcomes, 100.0);
  EXPECT_LE(stats.inversions, 60u * 59u / 2u);
  EXPECT_GE(stats.max_frontier_push, stats.p95_frontier_push * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OoPropertyTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---- scheduler-level properties over seeds ----------------------------------

class ScenarioPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioPropertyTest, OpSlackKeepsBurstsOffTheCriticalPath) {
  // With perfect estimates and a noise-free world, the Order Preserving
  // slack rule guarantees bursted jobs are never the reason the run ends
  // late: the very last completion belongs to an internal job (or the run
  // bursts nothing).
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving,
      workload::SizeBucket::kLargeBiased, GetParam());
  s.num_batches = 3;
  s.estimator = core::EstimatorKind::kOracle;
  s.truth.noise_sigma = 0.0;
  s.ec_sites[0].uplink.noise_sigma = 0.0;
  s.ec_sites[0].downlink.noise_sigma = 0.0;
  s.ec_sites[0].uplink.profile = net::DiurnalProfile::flat();
  s.ec_sites[0].downlink.profile = net::DiurnalProfile::flat();

  const auto result = harness::run_scenario(s);
  const sla::JobOutcome* last = &result.outcomes.front();
  std::size_t bursted = 0;
  for (const auto& o : result.outcomes) {
    if (o.completed > last->completed) last = &o;
    if (o.bursted()) ++bursted;
  }
  if (bursted > 0) {
    EXPECT_EQ(last->placement, sla::Placement::kInternal)
        << "bursted job " << last->seq_id << " set the makespan";
  }
}

TEST_P(ScenarioPropertyTest, BurstRatiosAndUtilizationsInRange) {
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kBandwidthSplit, workload::SizeBucket::kUniform,
      GetParam());
  s.num_batches = 3;
  const auto result = harness::run_scenario(s);
  EXPECT_GE(result.report.burst_ratio, 0.0);
  EXPECT_LE(result.report.burst_ratio, 1.0);
  EXPECT_LE(result.report.ic_utilization, 1.0 + 1e-9);
  EXPECT_LE(result.report.ec_utilization, 1.0 + 1e-9);
  EXPECT_GT(result.report.speedup, 1.0);
}

TEST_P(ScenarioPropertyTest, MakespanBoundedBySerialAndIdealParallel) {
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kGreedy, workload::SizeBucket::kUniform, GetParam());
  s.num_batches = 3;
  const auto result = harness::run_scenario(s);
  const double t_seq = sla::sequential_time(result.outcomes);
  EXPECT_GE(result.report.makespan_seconds, t_seq / 10.0);  // 8 IC + 2 EC
  // Upper bound: serial execution plus the arrival horizon plus transfer
  // slack; a gross bound, but catches runaway scheduling bugs.
  EXPECT_LE(result.report.makespan_seconds, t_seq + 3.0 * 180.0 + 4000.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioPropertyTest,
                         ::testing::Values(101u, 102u, 103u, 104u));

}  // namespace
