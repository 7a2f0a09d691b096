// Tests for the model-predictive lookahead policy (harness/world.hpp):
// decision mechanics, determinism, and the acceptance bar — lookahead must
// improve an SLA-cost dimension over both greedy and order-preserving on
// at least one workload family.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/task_pool.hpp"
#include "harness/world.hpp"

namespace {

using cbs::core::SchedulerKind;
using cbs::harness::LookaheadController;
using cbs::harness::RunResult;
using cbs::harness::Scenario;
using cbs::harness::ScenarioWorld;
using cbs::harness::run_scenario;

Scenario lookahead_scenario(std::uint64_t seed) {
  return cbs::harness::make_scenario(SchedulerKind::kLookahead,
                                     cbs::workload::SizeBucket::kUniform, seed);
}

TEST(Lookahead, DecidesAtEveryBatchAndValidates) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 4;
  ScenarioWorld world(s);
  world.run();
  const RunResult r = world.result();  // throws on invariant violations
  EXPECT_EQ(world.lookahead_choices().size(), s.num_batches);
  EXPECT_FALSE(r.outcomes.empty());
  EXPECT_EQ(world.controller().outstanding_jobs(), 0u);
}

TEST(Lookahead, CandidatePriorityOrderIsStable) {
  const auto order = LookaheadController::candidate_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], SchedulerKind::kOrderPreserving);
  EXPECT_EQ(order[1], SchedulerKind::kGreedy);
  EXPECT_EQ(order[2], SchedulerKind::kIcOnly);
}

TEST(Lookahead, ControllerRejectsCandidateCountsOutsideTheOrder) {
  for (const int candidates : {0, -1, 4, 5}) {
    LookaheadController::Config cfg;
    cfg.candidates = candidates;
    EXPECT_THROW(LookaheadController{cfg}, std::invalid_argument)
        << candidates;
  }
}

TEST(Lookahead, DecisionEvaluatesRequestedCandidateCount) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 2;
  s.lookahead_candidates = 2;
  ScenarioWorld world(s);
  LookaheadController::Config cfg;
  cfg.horizon_seconds = s.lookahead_horizon_seconds;
  cfg.candidates = s.lookahead_candidates;
  const LookaheadController lookahead(cfg);
  const auto decision = lookahead.decide(world, world.batches().front());
  EXPECT_EQ(decision.scores.size(), 2u);
  EXPECT_EQ(decision.scores[0].first, SchedulerKind::kOrderPreserving);
  EXPECT_EQ(decision.scores[1].first, SchedulerKind::kGreedy);
  // The winner is one of the evaluated candidates, at the winning score.
  double best = decision.scores[0].second;
  for (const auto& [kind, score] : decision.scores) best = std::min(best, score);
  EXPECT_EQ(decision.score, best);
}

TEST(Lookahead, DecisionDoesNotPerturbTheParent) {
  Scenario s = lookahead_scenario(42);
  s.num_batches = 2;
  ScenarioWorld a(s);
  ScenarioWorld b(s);
  LookaheadController::Config cfg;
  const LookaheadController lookahead(cfg);
  (void)lookahead.decide(a, a.batches().front());  // rollouts run in forks
  a.run();
  b.run();
  const RunResult ra = a.result();
  const RunResult rb = b.result();
  ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
  for (std::size_t i = 0; i < ra.outcomes.size(); ++i) {
    EXPECT_EQ(ra.outcomes[i].completed, rb.outcomes[i].completed);
  }
  EXPECT_EQ(ra.events_processed, rb.events_processed);
}

TEST(Lookahead, DeterministicAcrossRuns) {
  Scenario s = lookahead_scenario(7);
  s.num_batches = 4;
  const RunResult a = run_scenario(s);
  const RunResult b = run_scenario(s);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
  }
  EXPECT_EQ(a.cost.cloud_total(), b.cost.cloud_total());
}

/// decide()'s rollouts re-scored by score_world, which walks every outcome
/// of each rollout: the full-recompute reference for the prefix scoring.
std::vector<double> reference_scores(const LookaheadController& lookahead,
                                     const ScenarioWorld& parent,
                                     const cbs::workload::Batch& batch) {
  std::vector<double> scores;
  const auto order = LookaheadController::candidate_order();
  for (int c = 0; c < lookahead.config().candidates; ++c) {
    const SchedulerKind kind = order[static_cast<std::size_t>(c)];
    std::unique_ptr<ScenarioWorld> rollout = parent.fork();
    rollout->begin_rollout(kind);
    rollout->inject_batch_as(batch, kind);
    rollout->run_until(parent.now() + lookahead.config().horizon_seconds);
    scores.push_back(lookahead.score_world(*rollout));
  }
  return scores;
}

/// The lookahead worlds whose forks take different paths: the oracle, the
/// CLI default (QRSM estimator, whose model a fork copies), faults with
/// outages and retractions, L2 faults with the EWMA hazard predictor, and
/// two EC sites.
std::vector<std::pair<std::string, Scenario>> fork_path_worlds() {
  std::vector<std::pair<std::string, Scenario>> worlds;
  Scenario oracle = lookahead_scenario(42);
  oracle.estimator = cbs::core::EstimatorKind::kOracle;
  worlds.emplace_back("oracle", oracle);

  const char* argv[] = {"cloudburst_sim", "--scheduler", "lookahead"};
  namespace cli = cbs::harness::cli;
  const cli::Args args(3, argv, cli::scenario_flags());
  Scenario from_cli = cli::scenario_from_args(args);
  EXPECT_EQ(from_cli.estimator, cbs::core::EstimatorKind::kQrsm);
  worlds.emplace_back("cli-default-qrsm", from_cli);

  Scenario faults = lookahead_scenario(42);
  faults.faults.ic_vm_mtbf = 3000.0;
  faults.faults.ec_vm_mtbf = 900.0;
  faults.faults.vm_recovery_seconds = 90.0;
  faults.faults.outage_windows = {cbs::sim::OutageWindow{1500.0, 400.0}};
  faults.faults.retraction_deadline_factor = 3.0;
  worlds.emplace_back("faults", faults);

  Scenario hazard = lookahead_scenario(42);
  hazard.faults.ec_vm_mtbf = 1200.0;
  hazard.faults.ic_vm_mtbf = 6000.0;
  hazard.faults.retraction_deadline_factor = 3.0;
  hazard.resilience.hazard.kind = cbs::models::HazardPredictorKind::kEwma;
  worlds.emplace_back("l2-faults-ewma-hazard", hazard);

  Scenario sites = lookahead_scenario(42);
  sites.ec_sites.push_back(sites.ec_sites.front());
  sites.ec_sites.back().name = "ec-2";
  sites.ec_sites.back().uplink.base_rate *= 0.5;
  sites.ec_sites.back().downlink.base_rate *= 0.5;
  worlds.emplace_back("two-ec-sites", sites);

  for (auto& [name, scenario] : worlds) {
    scenario.num_batches = 40;
    scenario.log_threshold = cbs::sim::LogLevel::kOff;
  }
  return worlds;
}

// decide() runs the candidates' rollouts concurrently; the reference forks
// and rolls them one after another on this thread. Equal bits on every
// fork path means the concurrent decision is the serial one.
TEST(Lookahead, PrefixScoresMatchFullRecomputeBitForBit) {
  for (const auto& [name, s] : fork_path_worlds()) {
    ScenarioWorld world(s);
    LookaheadController::Config cfg;
    cfg.horizon_seconds = s.lookahead_horizon_seconds;
    cfg.candidates = s.lookahead_candidates;
    const LookaheadController lookahead(cfg);
    for (const std::size_t i : {3u, 10u, 17u, 25u, 39u}) {
      // The arrival fires a real decision, which advances the prefix.
      world.run_until(world.batches()[i].arrival_time);
      if (i >= 17) {
        EXPECT_GT(world.score_prefix().oo.count(), 0u) << name;
        EXPECT_GT(world.score_prefix().oo.frontier(), 1u) << name;
      }
      const auto decision = lookahead.decide(world, world.batches()[i]);
      const std::vector<double> want =
          reference_scores(lookahead, world, world.batches()[i]);
      ASSERT_EQ(decision.scores.size(), want.size());
      std::size_t best = 0;
      for (std::size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(std::memcmp(&decision.scores[c].second, &want[c],
                              sizeof(double)),
                  0)
            << name << ", batch " << i << ", candidate " << c << ": "
            << decision.scores[c].second << " vs " << want[c];
        if (want[c] < want[best]) best = c;
      }
      EXPECT_EQ(decision.kind, LookaheadController::candidate_order()[best])
          << name << ", batch " << i;
      EXPECT_EQ(std::memcmp(&decision.score, &want[best], sizeof(double)), 0)
          << name << ", batch " << i;
    }
    world.run();
    EXPECT_NO_THROW((void)world.result()) << name;
  }
}

// A forked controller used to re-install the run's log sink, so every
// rollout that crossed an outage start logged it into the real run (16
// lines here). Rollouts are silenced; only the run itself logs it.
TEST(Lookahead, RolloutsDoNotWriteToTheRunLog) {
  Scenario s = lookahead_scenario(1);
  s.num_batches = 40;
  s.estimator = cbs::core::EstimatorKind::kOracle;
  s.faults.outage_windows = {cbs::sim::OutageWindow{2000.0, 600.0}};
  testing::internal::CaptureStderr();
  (void)run_scenario(s);
  std::istringstream log(testing::internal::GetCapturedStderr());
  std::size_t outage_lines = 0;
  for (std::string line; std::getline(log, line);) {
    if (line.find("EC outage begins") == std::string::npos) continue;
    ++outage_lines;
    // The logger stamps each line "<LEVEL> t=<time> [component] ...".
    const std::size_t at = line.find("t=");
    ASSERT_NE(at, std::string::npos) << line;
    EXPECT_EQ(std::stod(line.substr(at + 2)), 2000.0) << line;
  }
  EXPECT_EQ(outage_lines, 1u);
}

TEST(TaskPool, RunsEveryIndexOnceAndWaitsForAll) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    cbs::harness::TaskPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    for (const std::size_t n : {0u, 1u, 2u, 5u, 17u}) {
      std::vector<std::atomic<int>> hits(n);
      auto task = [&](std::size_t i) { hits[i].fetch_add(1); };
      pool.run(n, task);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << workers << " workers, task " << i;
      }
    }
  }
}

TEST(TaskPool, RethrowsTheFirstFailureInIndexOrderAfterTheJoin) {
  cbs::harness::TaskPool pool(2);
  std::vector<std::atomic<int>> finished(6);
  auto task = [&](std::size_t i) {
    if (i == 4) throw std::logic_error("task 4");
    if (i == 2) {
      // Lets task 4 fail first in time on most interleavings.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      finished[i].fetch_add(1);
      throw std::runtime_error("task 2");
    }
    finished[i].fetch_add(1);
  };
  try {
    pool.run(6, task);
    ADD_FAILURE() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u}) {
    EXPECT_EQ(finished[i].load(), 1) << "task " << i;
  }
  // The pool is still usable after a failed call.
  std::atomic<int> calls{0};
  auto count = [&](std::size_t) { calls.fetch_add(1); };
  pool.run(3, count);
  EXPECT_EQ(calls.load(), 3);
}

TEST(TaskPool, ZeroWorkersIsTheSerialLoop) {
  cbs::harness::TaskPool pool(0);
  std::vector<std::size_t> order;
  auto task = [&](std::size_t i) {
    order.push_back(i);
    if (i == 1) throw std::runtime_error("stop");
  };
  EXPECT_THROW(pool.run(4, task), std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
}

// The acceptance bar: on the uniform bucket (the paper's §V default
// family, low network variation) the lookahead policy produces a cheaper
// cloud bill than BOTH fixed baselines — the horizon roll sees when a
// burst's transfer cost outweighs its deadline benefit and keeps the work
// internal. Pinned on two seeds so a single lucky draw can't carry it.
TEST(Lookahead, BeatsBothBaselinesOnCloudCostUniformFamily) {
  for (const std::uint64_t seed : {42ull, 7ull}) {
    const Scenario base = cbs::harness::make_scenario(
        SchedulerKind::kOrderPreserving, cbs::workload::SizeBucket::kUniform,
        seed);
    Scenario la = base;
    la.scheduler = SchedulerKind::kLookahead;
    Scenario greedy = base;
    greedy.scheduler = SchedulerKind::kGreedy;

    const double la_cost = run_scenario(la).cost.cloud_total();
    const double op_cost = run_scenario(base).cost.cloud_total();
    const double greedy_cost = run_scenario(greedy).cost.cloud_total();

    EXPECT_LT(la_cost, op_cost) << "seed " << seed;
    EXPECT_LT(la_cost, greedy_cost) << "seed " << seed;
  }
}

}  // namespace
