// Host-independent complexity gates for the two model paths every OP
// placement calls: the QRSM's moment updates and the bandwidth estimator's
// transfer-time query. An overloaded OP+QRSM world (λ = 15, uniform
// bucket) is run at N and 4N batches. Its backlog, and so the bytes each
// transfer query must integrate, grows with the run. The gates count
// work instead of timing it, so their bounds can be tight.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "models/estimator.hpp"
#include "models/qrsm.hpp"
#include "net/bandwidth_estimator.hpp"

namespace {

using cbs::harness::ScenarioWorld;

struct Work {
  double rows_per_observation = 0.0;
  double steps_per_query = 0.0;
  std::size_t queries = 0;
  double rebuilds_per_observation = 0.0;
};

Work run_overloaded_op(std::size_t batches) {
  auto s = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kUniform, 1);
  s.num_batches = batches;
  s.mean_jobs_per_batch = 15.0;
  s.estimator = cbs::core::EstimatorKind::kQrsm;
  ScenarioWorld world(s);
  world.run();
  const auto& ctl = world.controller();
  const auto* qrsm =
      dynamic_cast<const cbs::models::QrsmEstimator*>(&ctl.service_estimator());
  EXPECT_NE(qrsm, nullptr);
  Work w;
  if (qrsm != nullptr) {
    const auto& model = qrsm->model();
    w.rows_per_observation = static_cast<double>(model.moment_rows()) /
                             static_cast<double>(model.observations());
  }
  std::size_t steps = 0;
  std::size_t rebuilds = 0;
  std::size_t observations = 0;
  for (const auto* est : {&ctl.uplink_estimator(), &ctl.downlink_estimator()}) {
    w.queries += est->work().queries;
    steps += est->work().search_steps;
    rebuilds += est->work().table_rebuilds;
    observations += est->observation_count();
  }
  w.steps_per_query =
      static_cast<double>(steps) / static_cast<double>(w.queries);
  w.rebuilds_per_observation =
      static_cast<double>(rebuilds) / static_cast<double>(observations);
  return w;
}

TEST(ModelComplexityTest, PerCallWorkDoesNotGrowWithTheBacklog) {
  constexpr std::size_t kN = 250;
  const Work small = run_overloaded_op(kN);
  const Work large = run_overloaded_op(4 * kN);
  SCOPED_TRACE("rows/obs " + std::to_string(small.rows_per_observation) +
               " -> " + std::to_string(large.rows_per_observation) +
               ", steps/query " + std::to_string(small.steps_per_query) +
               " -> " + std::to_string(large.steps_per_query));
  ASSERT_GT(small.queries, 0u);
  ASSERT_GT(large.queries, 3 * small.queries);

  // QRSM: one update per observation plus one downdate once the window is
  // full; re-anchoring the moments adds at most an eighth of a row more.
  EXPECT_LE(small.rows_per_observation, 2.25);
  EXPECT_LE(large.rows_per_observation, 2.25);

  // Estimator: each query probes the cumulative table at most
  // ⌈log₂ slots⌉ + 2 times, however deep the upload queue ahead of it; the
  // table is rebuilt at most once per observation.
  const double max_steps =
      std::ceil(std::log2(48.0)) + 2.0;  // default 48 slots per day
  EXPECT_LE(small.steps_per_query, max_steps);
  EXPECT_LE(large.steps_per_query, max_steps);
  EXPECT_LE(small.rebuilds_per_observation, 1.0);
  EXPECT_LE(large.rebuilds_per_observation, 1.0);
}

}  // namespace
