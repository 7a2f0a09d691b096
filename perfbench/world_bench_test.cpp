// The benchmark's own tests: the counters each workload is chosen for, and
// that neither slicing a run nor probing it changes what it computes.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/world.hpp"
#include "world_bench.hpp"

namespace {

constexpr std::uint64_t kSeed = 3;

/// Short runs that still reach bursting, QRSM refits and lookahead
/// decisions.
cbs::harness::Scenario small(const std::string& workload) {
  return perfbench::make_workload(workload, kSeed,
                                  workload == "lookahead_fork" ? 40 : 80);
}

const perfbench::TracedRun& traced(const std::string& workload) {
  static std::map<std::string, perfbench::TracedRun> runs;
  auto it = runs.find(workload);
  if (it == runs.end()) {
    it = runs.emplace(workload, perfbench::traced_run(small(workload), 1))
             .first;
  }
  return it->second;
}

double metric(const perfbench::TracedRun& run, const std::string& name) {
  for (const auto& [key, value] : run.metrics) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(PerfbenchTest, OracleWorkloadsNeverRefitTheQrsm) {
  for (const std::string w : {"greedy_faults_overload", "lookahead_fork"}) {
    ASSERT_EQ(traced(w).error, "") << w;
    EXPECT_EQ(metric(traced(w), "models.qrsm_refits"), 0.0) << w;
  }
  ASSERT_EQ(traced("op_qrsm_knee").error, "");
  EXPECT_GT(metric(traced("op_qrsm_knee"), "models.qrsm_refits"), 0.0);
}

TEST(PerfbenchTest, OnlyTheLookaheadWorkloadForks) {
  for (const std::string w : {"op_qrsm_knee", "greedy_faults_overload"}) {
    ASSERT_EQ(traced(w).error, "") << w;
    EXPECT_EQ(metric(traced(w), "harness.forks"), 0.0) << w;
  }
  ASSERT_EQ(traced("lookahead_fork").error, "");
  EXPECT_GT(metric(traced("lookahead_fork"), "harness.forks"), 0.0);
}

TEST(PerfbenchTest, SlicedRunMatchesStraightRun) {
  for (const std::string& w : perfbench::workload_names()) {
    const perfbench::TimedRun sliced =
        perfbench::timed_run(small(w), 1, perfbench::Drive::kSliced);
    const perfbench::TimedRun straight =
        perfbench::timed_run(small(w), 1, perfbench::Drive::kStraight);
    ASSERT_EQ(sliced.error, "") << w;
    ASSERT_EQ(straight.error, "") << w;
    EXPECT_EQ(sliced.slice_ms.size(), small(w).num_batches + 1) << w;
    EXPECT_EQ(sliced.outcome_digest, straight.outcome_digest) << w;
    EXPECT_EQ(sliced.sim_digest, straight.sim_digest) << w;
  }
}

TEST(PerfbenchTest, TracedProbesLeaveTheRunUnchanged) {
  for (const std::string& w : perfbench::workload_names()) {
    const perfbench::TimedRun timed =
        perfbench::timed_run(small(w), 1, perfbench::Drive::kSliced);
    ASSERT_EQ(timed.error, "") << w;
    ASSERT_EQ(traced(w).error, "") << w;
    EXPECT_EQ(traced(w).outcome_digest, timed.outcome_digest) << w;
  }
}

TEST(PerfbenchTest, ConservationCheckCatchesALostJob) {
  cbs::harness::ScenarioWorld world(small("op_qrsm_knee"));
  world.run();
  std::vector<cbs::sla::JobOutcome> outcomes = world.result().outcomes;
  EXPECT_EQ(perfbench::check_conservation(world.batches(), outcomes), "");
  outcomes.erase(outcomes.begin() +
                 static_cast<std::ptrdiff_t>(outcomes.size() / 2));
  EXPECT_NE(perfbench::check_conservation(world.batches(), outcomes), "");
}

}  // namespace
