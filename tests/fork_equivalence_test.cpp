// Fork-equivalence golden suite: a world forked at any point and run to
// completion must be *byte-identical* to the straight run — every outcome
// timestamp, every fault counter, every billing figure. This is the
// acceptance bar for the snapshot/fork subsystem: exact `==` on doubles
// throughout, no tolerances.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "models/estimator.hpp"

namespace {

using cbs::harness::RunResult;
using cbs::harness::Scenario;
using cbs::harness::ScenarioWorld;
using cbs::harness::run_scenario;

/// Checkpoint/resume helper: builds a fresh world, advances it to
/// `fork_time`, forks it, destroys the parent and completes the fork. The
/// result must be byte-identical to run_scenario(scenario) — for any
/// fork_time — so the fork may keep nothing of its parent's, its models
/// and truth included. A fork_time of 0 forks the pristine world before any
/// event (including the t=0 batch) fires.
RunResult run_scenario_via_fork(const Scenario& scenario,
                                cbs::sim::SimTime fork_time) {
  std::unique_ptr<ScenarioWorld> resumed;
  {
    ScenarioWorld parent(scenario);
    // fork_time 0 means a pristine fork: run_until(0) would already fire
    // the t=0 batch (events at exactly the deadline fire), so skip it.
    if (fork_time > 0.0) parent.run_until(fork_time);
    resumed = parent.fork();
  }
  resumed->run();
  return resumed->result();
}

/// The table1_metrics-style fixture: the §V grid cell the flagship bench
/// pins, shrunk to keep the suite fast.
Scenario table1_fixture(cbs::core::SchedulerKind kind) {
  Scenario s = cbs::harness::make_scenario(kind,
                                           cbs::workload::SizeBucket::kUniform,
                                           /*seed=*/42);
  s.num_batches = 5;
  return s;
}

/// The fault_degradation-style fixture: crashes on both clusters, an EC
/// outage, a probe blackout and the retraction recovery policy all active.
Scenario fault_fixture() {
  Scenario s = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kOrderPreserving,
      cbs::workload::SizeBucket::kLargeBiased, /*seed=*/3);
  s.num_batches = 5;
  s.faults.ic_vm_mtbf = 3000.0;
  s.faults.ec_vm_mtbf = 900.0;
  s.faults.vm_recovery_seconds = 90.0;
  s.faults.outage_windows = {cbs::sim::OutageWindow{350.0, 200.0}};
  s.faults.probe_blackout = {cbs::sim::OutageWindow{200.0, 400.0}};
  s.faults.retraction_deadline_factor = 3.0;
  return s;
}

/// The proactive-resilience fixture: the fault fixture with the hazard
/// predictor on — drains, risk pricing and prediction bookkeeping all
/// cross the fork.
Scenario hazard_fixture(cbs::models::HazardPredictorKind kind) {
  Scenario s = fault_fixture();
  s.resilience.hazard.kind = kind;
  return s;
}

/// Two EC sites with every fork-crossing layer on: crashes on the IC and on
/// both sites' VMs, an outage that takes both pipes down, retraction
/// deadlines, per-site hazard estimators and elastic scaling of each site.
Scenario two_site_fixture() {
  Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kEwma);
  cbs::core::EcSiteConfig far = s.ec_sites[0];
  far.name = "ec-far";
  far.machines = 1;
  far.speed = 1.5;
  far.uplink.base_rate = 0.8e6;
  far.downlink.base_rate = 0.9e6;
  s.ec_sites.push_back(far);
  s.elastic_ec.enabled = true;
  s.elastic_ec.max_machines = 3;
  return s;
}

/// The §IV.D rescheduler on: pull-backs and push-outs move jobs between
/// the clouds mid-run, and the IC cluster's idle-machine report (read only
/// on this path) triggers the pull-backs.
Scenario rescheduler_fixture() {
  Scenario s = table1_fixture(cbs::core::SchedulerKind::kGreedy);
  s.enable_rescheduler = true;
  return s;
}

/// OP + QRSM at the default settings (4096-row window, refit every 32
/// observations), long enough for the window to wrap: a fork copies the
/// running moments and the rows kept for a pending MAPE.
Scenario qrsm_wrap_fixture() {
  Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  s.num_batches = 220;
  return s;
}

const cbs::models::QrsmModel& qrsm_of(const ScenarioWorld& world) {
  const auto* est = dynamic_cast<const cbs::models::QrsmEstimator*>(
      &world.controller().service_estimator());
  EXPECT_NE(est, nullptr);
  return est->model();
}

/// Exact equality over everything a run reports. Doubles compared with ==
/// on purpose: the fork contract is bit-replay, not approximation.
void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.pull_backs, b.pull_backs);
  EXPECT_EQ(a.push_outs, b.push_outs);
  EXPECT_EQ(a.peak_store_bytes, b.peak_store_bytes);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i];
    const auto& y = b.outcomes[i];
    EXPECT_EQ(x.seq_id, y.seq_id) << "outcome " << i;
    EXPECT_EQ(x.doc_id, y.doc_id) << "outcome " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "outcome " << i;
    EXPECT_EQ(x.scheduled, y.scheduled) << "outcome " << i;
    EXPECT_EQ(x.completed, y.completed) << "outcome " << i;
    EXPECT_EQ(x.input_mb, y.input_mb) << "outcome " << i;
    EXPECT_EQ(x.output_mb, y.output_mb) << "outcome " << i;
    EXPECT_EQ(x.true_service_seconds, y.true_service_seconds) << "outcome " << i;
    EXPECT_EQ(x.placement, y.placement) << "outcome " << i;
  }

  EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
  EXPECT_EQ(a.report.ic_utilization, b.report.ic_utilization);
  EXPECT_EQ(a.report.ec_utilization, b.report.ec_utilization);
  EXPECT_EQ(a.report.burst_ratio, b.report.burst_ratio);
  EXPECT_EQ(a.report.oo_final_mb, b.report.oo_final_mb);
  EXPECT_EQ(a.report.oo_time_averaged_mb, b.report.oo_time_averaged_mb);

  EXPECT_EQ(a.tickets.met, b.tickets.met);
  EXPECT_EQ(a.tickets.max_lateness, b.tickets.max_lateness);
  EXPECT_EQ(a.cost.ec_compute, b.cost.ec_compute);
  EXPECT_EQ(a.cost.egress, b.cost.egress);
  EXPECT_EQ(a.cost.ingress, b.cost.ingress);
  EXPECT_EQ(a.cost.storage, b.cost.storage);

  EXPECT_EQ(a.faults.ic_crashes, b.faults.ic_crashes);
  EXPECT_EQ(a.faults.ec_crashes, b.faults.ec_crashes);
  EXPECT_EQ(a.faults.reexecutions, b.faults.reexecutions);
  EXPECT_EQ(a.faults.wasted_compute_seconds, b.faults.wasted_compute_seconds);
  EXPECT_EQ(a.faults.link_outage_aborts, b.faults.link_outage_aborts);
  EXPECT_EQ(a.faults.wasted_transfer_bytes, b.faults.wasted_transfer_bytes);
  EXPECT_EQ(a.faults.retractions, b.faults.retractions);
  EXPECT_EQ(a.faults.store_retries, b.faults.store_retries);
  EXPECT_EQ(a.faults.store_abandoned, b.faults.store_abandoned);
  EXPECT_EQ(a.faults.probe_blackout_skips, b.faults.probe_blackout_skips);
  EXPECT_EQ(a.faults.crashes_injected, b.faults.crashes_injected);
  EXPECT_EQ(a.faults.outages, b.faults.outages);
  EXPECT_EQ(a.faults.drains, b.faults.drains);
  EXPECT_EQ(a.faults.undrains, b.faults.undrains);
  EXPECT_EQ(a.faults.drain_preemptions, b.faults.drain_preemptions);
  EXPECT_EQ(a.faults.idle_crashes_absorbed, b.faults.idle_crashes_absorbed);
  EXPECT_EQ(a.faults.checkpointed_compute_seconds,
            b.faults.checkpointed_compute_seconds);
  EXPECT_EQ(a.faults.hazard.predictions, b.faults.hazard.predictions);
  EXPECT_EQ(a.faults.hazard.true_positives, b.faults.hazard.true_positives);
  EXPECT_EQ(a.faults.hazard.false_positives, b.faults.hazard.false_positives);
  EXPECT_EQ(a.faults.hazard.false_negatives, b.faults.hazard.false_negatives);
}

TEST(ForkEquivalence, WorldMatchesLegacyRunScenario) {
  // The ScenarioWorld refactor itself must not perturb results: two
  // straight runs through the world are identical (determinism smoke).
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  expect_identical(run_scenario(s), run_scenario(s));
}

TEST(ForkEquivalence, Table1FixtureForkAtZero) {
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 0.0));
}

TEST(ForkEquivalence, Table1FixtureForkMidRun) {
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  // Mid third batch: uploads, EC processing, probes and the elastic check
  // are all in flight.
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 400.0));
}

// The service model crosses the fork inside the belief: the oracle with
// its own copy of the truth, the per-class QRSM with every class surface.
// Each fork outlives the world it was copied from.
TEST(ForkEquivalence, OracleEstimatorForkMidRun) {
  Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  s.estimator = cbs::core::EstimatorKind::kOracle;
  const RunResult straight = run_scenario(s);
  for (const double at : {0.0, 400.0, 700.0}) {
    expect_identical(straight, run_scenario_via_fork(s, at));
  }
}

TEST(ForkEquivalence, PerClassEstimatorForkMidRun) {
  Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  s.estimator = cbs::core::EstimatorKind::kPerClassQrsm;
  const RunResult straight = run_scenario(s);
  for (const double at : {0.0, 400.0, 700.0}) {
    expect_identical(straight, run_scenario_via_fork(s, at));
  }
}

TEST(ForkEquivalence, GreedyForkMidRun) {
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kGreedy);
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 500.0));
}

// A fork carries the Algorithm-3 bounds in force. They only show in a
// batch that bursts jobs although none was burst-eligible when the bounds
// were cut (Algorithm 2's slack grows as the batch fills the IC): here the
// batches after the idle gap, which class their bursts by the bounds the
// two loaded batches at its start computed. A fork that restarted the
// bounds at their defaults places those bursts in other upload classes.
TEST(ForkEquivalence, BandwidthSplitForkMidRun) {
  Scenario s = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kBandwidthSplit,
      cbs::workload::SizeBucket::kUniform, /*seed=*/2);
  s.num_batches = 4;
  std::vector<cbs::workload::Batch> batches = ScenarioWorld(s).batches();
  batches[1].arrival_time = 60.0;
  batches[2].arrival_time = 30000.0;
  batches[3].arrival_time = 60000.0;
  ScenarioWorld straight(s, batches);
  straight.run();
  for (const double at : {30.0, 20000.0, 45000.0}) {
    ScenarioWorld parent(s, batches);
    parent.run_until(at);
    std::unique_ptr<ScenarioWorld> resumed = parent.fork();
    resumed->run();
    expect_identical(straight.result(), resumed->result());
  }
}

// A fork carries the random comparator's draw position: a fork that
// restarted the draws would burst other jobs after the fork point.
TEST(ForkEquivalence, RandomForkMidRun) {
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kRandom);
  const RunResult straight = run_scenario(s);
  for (const double at : {200.0, 400.0, 600.0}) {
    expect_identical(straight, run_scenario_via_fork(s, at));
  }
}

// A lookahead world forks its live state, not its rollout pool: the fork
// builds its own controller at its next decision, and its decisions (run
// concurrently) replay the straight run's exactly.
TEST(ForkEquivalence, LookaheadFaultWorldForkMidRun) {
  Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kEwma);
  s.scheduler = cbs::core::SchedulerKind::kLookahead;
  for (const double at : {0.0, 400.0, 700.0}) {
    expect_identical(run_scenario(s), run_scenario_via_fork(s, at));
  }
}

TEST(ForkEquivalence, FaultFixtureForkAtZero) {
  const Scenario s = fault_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 0.0));
}

TEST(ForkEquivalence, FaultFixtureForkMidRun) {
  // 400 s is inside both the EC outage window (350–550) and the probe
  // blackout (200–600): the fork must carry armed crash processes, the
  // open outage depth and pending retraction deadlines across.
  const Scenario s = fault_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 400.0));
}

TEST(ForkEquivalence, FaultFixtureForkLate) {
  const Scenario s = fault_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 700.0));
}

TEST(ForkEquivalence, HazardFixtureForkAtZero) {
  const Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kEwma);
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 0.0));
}

TEST(ForkEquivalence, HazardFixtureForkMidRun) {
  // 400 s is inside the outage and past the first EC crashes, so the fork
  // copies live hazard state: non-prior rates, active drains, raised flags.
  const Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kEwma);
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 400.0));
}

TEST(ForkEquivalence, HazardFixtureBayesForkLate) {
  const Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kBayes);
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 700.0));
}

TEST(ForkEquivalence, HazardEstimatorStateIsCopiedExactly) {
  // Beyond run-level equality: the estimator itself must clone
  // byte-identically — per-machine failure counts, flags, rates and the
  // prediction scorecard all equal across the fork boundary.
  const Scenario s = hazard_fixture(cbs::models::HazardPredictorKind::kEwma);
  ScenarioWorld parent(s);
  parent.run_until(700.0);
  std::unique_ptr<ScenarioWorld> forked = parent.fork();

  const cbs::core::CloudBurstController& pc = parent.controller();
  const cbs::core::CloudBurstController& fc = forked->controller();
  const std::pair<const cbs::models::VmHazardEstimator*,
                  const cbs::models::VmHazardEstimator*>
      estimators[] = {{pc.ic_hazard(), fc.ic_hazard()},
                      {pc.site(0).hazard.get(), fc.site(0).hazard.get()}};
  for (const auto& [a, b] : estimators) {
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->machine_count(), b->machine_count());
    for (std::size_t m = 0; m < a->machine_count(); ++m) {
      EXPECT_EQ(a->failures(m), b->failures(m));
      EXPECT_EQ(a->flagged(m), b->flagged(m));
      EXPECT_EQ(a->hazard_rate(m, 700.0), b->hazard_rate(m, 700.0));
    }
    EXPECT_EQ(a->stats().predictions, b->stats().predictions);
    EXPECT_EQ(a->stats().true_positives, b->stats().true_positives);
    EXPECT_EQ(a->stats().false_positives, b->stats().false_positives);
    EXPECT_EQ(a->stats().false_negatives, b->stats().false_negatives);
  }
  EXPECT_EQ(parent.controller().ec_failure_risk(),
            forked->controller().ec_failure_risk());
}

TEST(ForkEquivalence, TwoSiteFixtureBurstsToBothSites) {
  // Guards the fixture: the fork tests below only mean something if both
  // sites carry jobs and the fault layer actually fires on them.
  ScenarioWorld world(two_site_fixture());
  world.run();
  const auto& controller = world.controller();
  ASSERT_EQ(controller.site_count(), 2u);
  EXPECT_GT(controller.site(0).bursts, 0u);
  EXPECT_GT(controller.site(1).bursts, 0u);
  EXPECT_GT(world.result().faults.ec_crashes, 0u);
}

TEST(ForkEquivalence, TwoSiteFixtureForkEarly) {
  const Scenario s = two_site_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 100.0));
}

TEST(ForkEquivalence, TwoSiteFixtureForkMidRun) {
  // Inside the outage (350-550 s): both sites' links are down, retraction
  // deadlines and booting instances are pending on either site.
  const Scenario s = two_site_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 400.0));
}

TEST(ForkEquivalence, TwoSiteFixtureForkLate) {
  const Scenario s = two_site_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 700.0));
}

TEST(ForkEquivalence, ReschedulerFixtureReschedulesBeforeTheMidFork) {
  // Guards the fixture: the mid-run fork below must land after the
  // rescheduler has already moved a job, and pull-backs (which an idle IC
  // machine triggers) must also happen after the late fork.
  ScenarioWorld world(rescheduler_fixture());
  world.run_until(400.0);
  EXPECT_GT(world.controller().pull_backs() + world.controller().push_outs(),
            0u);
  world.run_until(700.0);
  const std::size_t late_fork_pull_backs = world.controller().pull_backs();
  world.run();
  EXPECT_GT(world.controller().pull_backs(), late_fork_pull_backs);
}

TEST(ForkEquivalence, ReschedulerFixtureForkAtZero) {
  const Scenario s = rescheduler_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 0.0));
}

TEST(ForkEquivalence, ReschedulerFixtureForkMidRun) {
  const Scenario s = rescheduler_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 400.0));
}

TEST(ForkEquivalence, ReschedulerFixtureForkLate) {
  const Scenario s = rescheduler_fixture();
  expect_identical(run_scenario(s), run_scenario_via_fork(s, 700.0));
}

TEST(ForkEquivalence, QrsmWrappedWindowForkBetweenRefits) {
  const Scenario s = qrsm_wrap_fixture();
  const cbs::models::QrsmModel::Config defaults;
  ScenarioWorld parent(s);
  // Advance until the window has wrapped and the last refit is a few
  // observations back.
  const auto since_refit = [&] {
    return (qrsm_of(parent).observations() - s.pretrain_samples) %
           defaults.refit_interval;
  };
  cbs::sim::SimTime t = 0.0;
  while (qrsm_of(parent).observations() <
             s.pretrain_samples + defaults.window + 100 ||
         since_refit() == 0) {
    t += 60.0;
    parent.run_until(t);
    ASSERT_LT(t, static_cast<double>(s.num_batches) * s.batch_interval_seconds)
        << "the arrivals ended before the window wrapped";
  }
  ASSERT_EQ(qrsm_of(parent).buffered(), defaults.window);

  std::unique_ptr<ScenarioWorld> forked = parent.fork();
  parent.run();
  forked->run();
  expect_identical(parent.result(), forked->result());
  expect_identical(forked->result(), run_scenario(s));
  ASSERT_TRUE(qrsm_of(parent).last_fit().has_value());
  ASSERT_TRUE(qrsm_of(*forked).last_fit().has_value());
  EXPECT_EQ(qrsm_of(parent).last_fit()->coefficients,
            qrsm_of(*forked).last_fit()->coefficients);
  EXPECT_EQ(qrsm_of(parent).last_fit()->mape, qrsm_of(*forked).last_fit()->mape);
}

TEST(ForkEquivalence, ForkIsIndependentOfParent) {
  // Running the parent to completion after forking must not disturb the
  // fork (and vice versa): no shared mutable state survives the copy.
  const Scenario s = fault_fixture();
  ScenarioWorld parent(s);
  parent.run_until(400.0);
  auto forked = parent.fork();
  parent.run();
  forked->run();
  expect_identical(parent.result(), forked->result());
  expect_identical(forked->result(), run_scenario(s));
}

TEST(ForkEquivalence, ForkCopiesLiveStateAndSharesHistory) {
  // A fork copies what is live and shares what is history: one pending
  // batch arrival (not every remaining one), a job table holding only the
  // outstanding jobs, and the sealed outcome chunks and batch schedule of
  // the parent itself.
  Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  s.num_batches = 1000;
  ScenarioWorld parent(s);
  parent.run_until(parent.batches()[500].arrival_time + 1.0);
  const std::unique_ptr<ScenarioWorld> forked = parent.fork();

  EXPECT_EQ(forked->pending_events(), parent.pending_events());
  EXPECT_EQ(parent.pending_arrivals(), 1u);
  EXPECT_EQ(forked->pending_arrivals(), 1u);
  EXPECT_EQ(&forked->batches(), &parent.batches());

  for (const ScenarioWorld* world : {&parent, forked.get()}) {
    const auto& controller = world->controller();
    EXPECT_GT(controller.outstanding_jobs(), 0u);
    EXPECT_EQ(controller.job_table_size(), controller.outstanding_jobs());
  }

  const auto& parent_log = parent.controller().outcomes();
  const auto& fork_log = forked->controller().outcomes();
  ASSERT_GT(parent_log.sealed_chunks(), 0u);
  ASSERT_EQ(fork_log.sealed_chunks(), parent_log.sealed_chunks());
  for (std::size_t i = 0; i < parent_log.sealed_chunks(); ++i) {
    EXPECT_EQ(&fork_log.sealed_chunk(i), &parent_log.sealed_chunk(i));
  }

  const std::vector<cbs::sla::JobOutcome> before = parent_log.to_vector();
  forked->run_until(parent.now() + 3600.0);
  ASSERT_GT(fork_log.size(), before.size());
  const std::vector<cbs::sla::JobOutcome> after = parent_log.to_vector();
  const std::vector<cbs::sla::JobOutcome> fork_all = fork_log.to_vector();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].seq_id, before[i].seq_id) << "outcome " << i;
    EXPECT_EQ(after[i].completed, before[i].completed) << "outcome " << i;
    EXPECT_EQ(fork_all[i].seq_id, before[i].seq_id) << "outcome " << i;
    EXPECT_EQ(fork_all[i].completed, before[i].completed) << "outcome " << i;
  }
  EXPECT_EQ(forked->controller().job_table_size(),
            forked->controller().outstanding_jobs());

  // A store-active world (faults on, EC objects staged, some already
  // fetched and erased, so the byte-seconds integral has run) forks its
  // store's live objects and running occupancy values, not a history, and
  // the fork still continues byte-identically.
  const Scenario faulty = fault_fixture();
  ScenarioWorld active(faulty);
  const auto& store = active.controller().store();
  const auto staged_and_erased = [&store] {
    return store.object_count() > 0 &&
           store.peak_occupancy_bytes() > store.occupancy_bytes();
  };
  for (double at = 50.0; !staged_and_erased() && at <= 2000.0; at += 50.0) {
    active.run_until(at);
  }
  ASSERT_GT(store.object_count(), 0u);
  ASSERT_GT(store.peak_occupancy_bytes(), store.occupancy_bytes());
  const std::unique_ptr<ScenarioWorld> active_fork = active.fork();
  const auto& fork_store = active_fork->controller().store();
  EXPECT_EQ(fork_store.object_count(), store.object_count());
  EXPECT_EQ(fork_store.occupancy_bytes(), store.occupancy_bytes());
  EXPECT_EQ(fork_store.peak_occupancy_bytes(), store.peak_occupancy_bytes());
  EXPECT_EQ(fork_store.occupancy_byte_seconds(),
            store.occupancy_byte_seconds());
  active_fork->run();
  expect_identical(active_fork->result(), run_scenario(faulty));
}

TEST(ForkEquivalence, ForkOfForkStillIdentical) {
  const Scenario s = table1_fixture(cbs::core::SchedulerKind::kOrderPreserving);
  ScenarioWorld parent(s);
  parent.run_until(300.0);
  auto first = parent.fork();
  first->run_until(600.0);
  auto second = first->fork();
  second->run();
  expect_identical(second->result(), run_scenario(s));
}

}  // namespace
