// Tests for the fault-injection and recovery subsystem: the FaultPlan
// event generator, the controller's burst-retraction policy, and the
// scheduler invariants that must survive faults — conservation (every job
// completes exactly once), FCFS re-admission order, and determinism of
// faulted runs at any worker-thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "closure_events.hpp"
#include "core/controller.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "recording_owner.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "workload/ground_truth.hpp"

namespace {

using namespace cbs;
using cbs::sim::FaultConfig;
using cbs::sim::FaultPlan;
using cbs::sim::OutageWindow;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

// ---- FaultPlan: the event generator ------------------------------------

TEST(FaultPlanTest, DisabledConfigIsDisabled) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.any_faults());
  EXPECT_FALSE(cfg.enabled());
  cfg.retraction_deadline_factor = 2.0;
  EXPECT_FALSE(cfg.any_faults());  // recovery policy alone injects nothing
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultPlanTest, CrashTraceIsDeterministicPerSeed) {
  const auto trace = [](std::uint64_t seed) {
    Simulation sim;
    FaultConfig cfg;
    cfg.ec_vm_mtbf = 50.0;
    cfg.vm_recovery_seconds = 5.0;
    RecordingOwner owner(sim);
    // Stop the otherwise-unbounded crash/recover loop after a horizon.
    owner.active_until = 300.0;
    FaultPlan plan(sim, owner, cfg, RngStream(seed));
    plan.drive_vm_crashes("ec", 3, cfg.ec_vm_mtbf, 0);
    sim.run();
    return owner.crashes;
  };
  const auto a = trace(7);
  const auto b = trace(7);
  const auto c = trace(8);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FaultPlanTest, MachineSubstreamsAreIndependent) {
  // The crash times of machine 0 must not change when more machines are
  // driven — each machine draws from its own named substream.
  const auto machine0_times = [](std::size_t machines) {
    Simulation sim;
    FaultConfig cfg;
    cfg.ic_vm_mtbf = 40.0;
    cfg.vm_recovery_seconds = 1.0;
    RecordingOwner owner(sim);
    owner.active_until = 200.0;
    FaultPlan plan(sim, owner, cfg, RngStream(11));
    plan.drive_vm_crashes("ic", machines, cfg.ic_vm_mtbf, 0);
    sim.run();
    std::vector<double> times;
    for (const auto& crash : owner.crashes) {
      if (crash.machine == 0) times.push_back(crash.at);
    }
    return times;
  };
  EXPECT_EQ(machine0_times(1), machine0_times(4));
}

TEST(FaultPlanTest, OverlappingOutageWindowsMerge) {
  Simulation sim;
  FaultConfig cfg;
  cfg.outage_windows = {OutageWindow{10.0, 10.0},   // [10, 20)
                        OutageWindow{15.0, 15.0},   // [15, 30) — overlaps
                        OutageWindow{50.0, 5.0}};   // [50, 55) — separate
  RecordingOwner owner(sim);
  FaultPlan plan(sim, owner, cfg, RngStream(1));
  plan.drive_outages();
  sim.run();
  const std::vector<double>& begins = owner.outage_begins;
  const std::vector<double>& ends = owner.outage_ends;
  // Two merged outage episodes: [10, 30) and [50, 55).
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_DOUBLE_EQ(begins[0], 10.0);
  EXPECT_DOUBLE_EQ(ends[0], 30.0);
  EXPECT_DOUBLE_EQ(begins[1], 50.0);
  EXPECT_DOUBLE_EQ(ends[1], 55.0);
  EXPECT_EQ(plan.outages_started(), 2u);
}

TEST(FaultPlanTest, CrashProcessPausesWhileInactiveAndResumes) {
  Simulation sim;
  FaultConfig cfg;
  cfg.ic_vm_mtbf = 10.0;
  cfg.vm_recovery_seconds = 1.0;
  RecordingOwner owner(sim);
  owner.active_until = 0.0;
  FaultPlan plan(sim, owner, cfg, RngStream(3));
  plan.drive_vm_crashes("ic", 1, cfg.ic_vm_mtbf, 0);
  sim.run();  // gate closed: the armed crash fires as a no-op and pauses
  EXPECT_TRUE(owner.crashes.empty());
  owner.active_until = sim.now() + 200.0;
  plan.ensure_armed();
  sim.run();
  EXPECT_FALSE(owner.crashes.empty());
}

// ---- Scenario-level: invariants under faults ----------------------------

harness::Scenario faulted_scenario(std::uint64_t seed) {
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased,
      seed);
  s.num_batches = 3;
  s.log_threshold = cbs::sim::LogLevel::kError;
  s.faults.ec_vm_mtbf = 900.0;
  s.faults.ic_vm_mtbf = 3000.0;
  s.faults.vm_recovery_seconds = 90.0;
  s.faults.outage_windows = {OutageWindow{350.0, 200.0}};
  s.faults.probe_blackout = {OutageWindow{200.0, 400.0}};
  s.faults.retraction_deadline_factor = 3.0;
  return s;
}

TEST(FaultScenarioTest, ConservationHoldsUnderHeavyFaults) {
  // result() validates that job ids 1..n complete exactly once and throws
  // otherwise — surviving the call IS the conservation check.
  harness::ScenarioWorld world(faulted_scenario(42));
  world.run();
  const auto r = world.result();
  EXPECT_GT(r.outcomes.size(), 10u);
  EXPECT_GT(r.faults.ic_crashes + r.faults.ec_crashes, 0u);
  EXPECT_GT(r.faults.reexecutions, 0u);
  EXPECT_GT(r.faults.wasted_compute_seconds, 0.0);
  EXPECT_EQ(r.faults.outages, 1u);
  EXPECT_GT(r.faults.probe_blackout_skips, 0u);
  EXPECT_GT(r.faults.store_retries, 0u);
  // Every staged object was released, retried puts included: the store
  // keeps no per-object record, so its count and occupancy are the check.
  const core::CloudBurstController& controller = world.controller();
  for (std::size_t i = 0; i < controller.site_count(); ++i) {
    EXPECT_EQ(controller.site(i).store.object_count(), 0u) << "site " << i;
    EXPECT_EQ(controller.site(i).store.occupancy_bytes(), 0.0) << "site " << i;
  }
}

TEST(FaultScenarioTest, OutageTriggersRetractionAndJobsStillComplete) {
  // An outage window placed over the upload phase forces queued bursts
  // back to the IC; nothing may be lost or duplicated.
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased,
      1337);
  s.num_batches = 3;
  s.log_threshold = cbs::sim::LogLevel::kError;
  s.faults.outage_windows = {OutageWindow{200.0, 400.0},
                             OutageWindow{700.0, 200.0}};
  const auto r = harness::run_scenario(s);
  EXPECT_GT(r.faults.retractions, 0u);
  // Retracted jobs end as internal completions; the placement mix shifts
  // but every job completes (validated inside run_scenario).
  std::size_t internal = 0;
  for (const auto& o : r.outcomes) {
    if (o.placement == sla::Placement::kInternal) ++internal;
  }
  EXPECT_GT(internal, 0u);
}

TEST(FaultScenarioTest, RetractionPreservesFcfsReadmission) {
  // Single batch + a long outage over the upload phase: every queued burst
  // is retracted at the same instant and must re-enter the IC feed queue at
  // its sequence position. With a single IC machine the cluster serializes,
  // so completion order equals dispatch order — and dispatch order after
  // the retraction must follow the seq-sorted feed queue.
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased,
      7);
  s.num_batches = 1;
  s.log_threshold = cbs::sim::LogLevel::kError;
  s.faults.outage_windows = {OutageWindow{190.0, 2000.0}};
  s.ic_machines = 1;

  const auto r = harness::run_scenario(s);
  ASSERT_GT(r.faults.retractions, 0u);

  std::vector<std::pair<double, std::uint64_t>> ic_done;
  for (const auto& o : r.outcomes) {
    if (o.placement == sla::Placement::kInternal && o.completed > 190.0) {
      ic_done.emplace_back(o.completed, o.seq_id);
    }
  }
  std::sort(ic_done.begin(), ic_done.end());
  ASSERT_GT(ic_done.size(), 2u);
  // ic_done[0] may be the task already running when the outage hit (its seq
  // can exceed a retracted job's); everything dispatched after it is FCFS.
  std::uint64_t prev_seq = 0;
  for (std::size_t i = 1; i < ic_done.size(); ++i) {
    EXPECT_GT(ic_done[i].second, prev_seq)
        << "IC completion order violates FCFS at t=" << ic_done[i].first;
    prev_seq = ic_done[i].second;
  }
}

TEST(FaultScenarioTest, ServiceIsDrawnOnceAtFirstDispatchOnEveryPath) {
  // A job's realized service is drawn when it is first dispatched, not when
  // it is admitted. On every path — IC, EC, a burst retracted and re-run
  // internally, a task re-executed after a crash — it must be the
  // identity-keyed draw of its document, drawn once per job.
  harness::Scenario s = faulted_scenario(42);
  // No chunks, so every job is an input document.
  s.params.variability_threshold_mb = 1e9;
  ASSERT_GT(s.truth.noise_sigma, 0.0);
  harness::ScenarioWorld world(s);
  world.run();
  const harness::RunResult r = world.result();
  ASSERT_GT(r.faults.retractions, 0u);
  ASSERT_GT(r.faults.reexecutions, 0u);

  std::map<std::uint64_t, const workload::Document*> docs;
  for (const auto& batch : world.batches()) {
    for (const auto& doc : batch.documents) docs[doc.doc_id] = &doc;
  }
  const workload::GroundTruthModel truth(s.truth,
                                         RngStream(s.seed).substream("truth"));
  std::size_t internal = 0;
  std::size_t external = 0;
  for (const auto& o : r.outcomes) {
    const auto it = docs.find(o.doc_id);
    ASSERT_NE(it, docs.end()) << "outcome of an unknown document " << o.doc_id;
    EXPECT_EQ(o.true_service_seconds, truth.realized_seconds(*it->second))
        << "job " << o.seq_id;
    ++(o.bursted() ? external : internal);
  }
  EXPECT_GT(internal, 0u);
  EXPECT_GT(external, 0u);
  EXPECT_EQ(world.controller().service_draws(), r.outcomes.size());
}

TEST(FaultScenarioTest, InertRecoveryPolicyDoesNotPerturbResults) {
  // Arming the retraction machinery without it ever firing (absurdly large
  // deadline factor, no injected faults) must not change any result: the
  // deadline events are armed and cancelled but never observed.
  harness::Scenario plain = harness::make_scenario(
      core::SchedulerKind::kGreedy, workload::SizeBucket::kUniform, 42);
  plain.num_batches = 2;
  harness::Scenario gated = plain;
  gated.faults.retraction_deadline_factor = 1.0e9;

  const auto a = harness::run_scenario(plain);
  const auto b = harness::run_scenario(gated);
  EXPECT_EQ(b.faults.retractions, 0u);
  EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
  EXPECT_EQ(a.report.speedup, b.report.speedup);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
  }
}

TEST(FaultScenarioTest, FaultedRunsAreDeterministicAcrossThreadCounts) {
  std::vector<harness::Scenario> scenarios;
  for (const std::uint64_t seed : {42ULL, 7ULL}) {
    scenarios.push_back(faulted_scenario(seed));
  }
  const harness::ExperimentPlan plan =
      harness::ExperimentPlan::list(scenarios);

  const auto run_at = [&plan](std::size_t threads) {
    harness::RunnerOptions opts;
    opts.threads = threads;
    return harness::run_plan(plan, opts);
  };
  const auto r1 = run_at(1);
  const auto r2 = run_at(2);
  const auto r8 = run_at(8);
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok() && r2[i].ok() && r8[i].ok());
    EXPECT_EQ(r1[i].result->report.makespan_seconds,
              r2[i].result->report.makespan_seconds);
    EXPECT_EQ(r1[i].result->report.makespan_seconds,
              r8[i].result->report.makespan_seconds);
    EXPECT_EQ(r1[i].result->events_processed, r2[i].result->events_processed);
    EXPECT_EQ(r1[i].result->events_processed, r8[i].result->events_processed);
    EXPECT_EQ(r1[i].result->faults.retractions,
              r8[i].result->faults.retractions);
    EXPECT_EQ(r1[i].result->faults.crashes_injected,
              r8[i].result->faults.crashes_injected);
  }
}

TEST(FaultScenarioTest, GreedyAlsoSurvivesFaults) {
  harness::Scenario s = faulted_scenario(2718);
  s.scheduler = core::SchedulerKind::kGreedy;
  const auto r = harness::run_scenario(s);  // throws on invariant violation
  EXPECT_GT(r.outcomes.size(), 10u);
}

// ---- proactive resilience (hazard predictor on) -------------------------

harness::Scenario hazard_scenario(std::uint64_t seed,
                                  models::HazardPredictorKind kind) {
  harness::Scenario s = faulted_scenario(seed);
  s.resilience.hazard.kind = kind;
  return s;
}

TEST(FaultScenarioTest, HazardPredictorPreservesConservation) {
  // Surviving run_scenario IS the zero-lost-jobs check; on top of that the
  // proactive machinery must actually engage under this fault load and the
  // prediction scorecard must stay internally consistent.
  const auto r = harness::run_scenario(
      hazard_scenario(42, models::HazardPredictorKind::kEwma));
  EXPECT_GT(r.outcomes.size(), 10u);
  EXPECT_GT(r.faults.drains, 0u);
  EXPECT_GT(r.faults.hazard.predictions, 0u);
  // Every prediction resolves to TP or FP (or is still open at run end).
  EXPECT_LE(r.faults.hazard.true_positives + r.faults.hazard.false_positives,
            r.faults.hazard.predictions);
  EXPECT_GE(r.faults.hazard.precision(), 0.0);
  EXPECT_LE(r.faults.hazard.precision(), 1.0);
  EXPECT_GE(r.faults.hazard.recall(), 0.0);
  EXPECT_LE(r.faults.hazard.recall(), 1.0);
}

TEST(FaultScenarioTest, ElasticHazardRunCheckpointsDrainedTasks) {
  // The whole-run path to a drain's checkpoint-restart: greedy on the
  // uniform bucket with an elastic EC, crashes on both clouds, retraction
  // and the EWMA predictor (cloudburst_sim --scheduler greedy --bucket
  // uniform --batches 40 --seed 42 --elastic --ic-mtbf 3000 --ec-mtbf 600
  // --retraction-factor 2 --hazard-predictor ewma --drain-threshold 0.02).
  // A machine's risk rises only at its own crash, when it is down, so only
  // a booted instance can be drained busy: it starts cold, at the prior's
  // 1 - e^(-600/20000) ~ 0.0296, and the threshold sits below that.
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kGreedy, workload::SizeBucket::kUniform, 42);
  s.num_batches = 40;
  s.log_threshold = cbs::sim::LogLevel::kError;
  s.elastic_ec = {.enabled = true, .max_machines = 6};
  s.faults.ic_vm_mtbf = 3000.0;
  s.faults.ec_vm_mtbf = 600.0;
  s.faults.retraction_deadline_factor = 2.0;
  s.resilience.hazard.kind = models::HazardPredictorKind::kEwma;
  s.resilience.drain_threshold = 0.02;
  const auto r = harness::run_scenario(s);  // throws on invariant violation
  EXPECT_GT(r.faults.drain_preemptions, 0u);
  EXPECT_GT(r.faults.checkpointed_compute_seconds, 0.0);
}

TEST(FaultScenarioTest, ReusedElasticSlotStartsWithAColdHazardHistory) {
  // The elastic run above, on a controller stepped one event at a time: a
  // retired EC slot that had crashes and is booted again is a new
  // instance, so the site's hazard estimator must read it cold (no
  // failures, no flag) the moment it is reused.
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kGreedy, workload::SizeBucket::kUniform, 42);
  s.num_batches = 40;
  s.log_threshold = cbs::sim::LogLevel::kError;
  s.elastic_ec = {.enabled = true, .max_machines = 6};
  s.faults.ic_vm_mtbf = 3000.0;
  s.faults.ec_vm_mtbf = 600.0;
  s.faults.retraction_deadline_factor = 2.0;
  s.resilience.hazard.kind = models::HazardPredictorKind::kEwma;
  const harness::ScenarioWorld drawn(s);  // for its batches only

  Simulation sim;
  cbs::testing::ClosureEvents arrivals(sim);
  const workload::GroundTruthModel truth(s.truth,
                                         RngStream(s.seed).substream("truth"));
  core::CloudBurstController ctl(sim, s, truth, RngStream(s.seed));
  for (const workload::Batch& batch : drawn.batches()) {
    arrivals.at(batch.arrival_time, [&ctl, &batch] { ctl.on_batch(batch); });
  }
  const compute::Cluster& cluster = ctl.site(0).cluster;
  const models::VmHazardEstimator& hazard = ctl.site(0).hazard.value();
  // A slot the estimator does not track yet has no history.
  const auto failures = [&hazard](std::size_t m) {
    return m < hazard.machine_count() ? hazard.failures(m) : 0u;
  };
  // Per slot, after the previous event: retired or not, and the failures
  // the estimator held for it. A retired slot's crash processes keep
  // running, so its entry can gather history until the slot is reused.
  std::vector<bool> retired;
  std::vector<std::uint64_t> held;
  std::size_t reused_with_history = 0;
  while (sim.step()) {
    for (std::size_t m = 0; m < cluster.machine_slots(); ++m) {
      const bool now_retired = cluster.machine_retired(m);
      if (m == retired.size()) {
        retired.push_back(now_retired);
        held.push_back(failures(m));
        continue;
      }
      if (retired[m] && !now_retired) {
        if (held[m] > 0) ++reused_with_history;
        EXPECT_EQ(failures(m), 0u) << "slot " << m << " at " << sim.now();
        EXPECT_FALSE(hazard.flagged(m)) << "slot " << m << " at " << sim.now();
      }
      retired[m] = now_retired;
      held[m] = failures(m);
    }
  }
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_GT(reused_with_history, 0u);
}

TEST(FaultScenarioTest, HazardPredictorOffIsInertWhateverTheKnobs) {
  // kind == kOff must disable the whole resilience layer even when the
  // drain threshold is set aggressively — the byte-identity contract of
  // the default path rests on this.
  harness::Scenario plain = faulted_scenario(42);
  harness::Scenario off = plain;
  off.resilience.hazard.kind = models::HazardPredictorKind::kOff;
  off.resilience.drain_threshold = 0.0;

  const auto a = harness::run_scenario(plain);
  const auto b = harness::run_scenario(off);
  EXPECT_EQ(b.faults.drains, 0u);
  EXPECT_EQ(b.faults.hazard.predictions, 0u);
  EXPECT_EQ(a.report.makespan_seconds, b.report.makespan_seconds);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed);
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement);
  }
}

TEST(FaultScenarioTest, HazardRunsAreDeterministicAcrossThreadCounts) {
  std::vector<harness::Scenario> scenarios;
  for (const auto kind : {models::HazardPredictorKind::kEwma,
                          models::HazardPredictorKind::kBayes}) {
    scenarios.push_back(hazard_scenario(42, kind));
    scenarios.push_back(hazard_scenario(7, kind));
  }
  const harness::ExperimentPlan plan =
      harness::ExperimentPlan::list(scenarios);

  const auto run_at = [&plan](std::size_t threads) {
    harness::RunnerOptions opts;
    opts.threads = threads;
    return harness::run_plan(plan, opts);
  };
  const auto r1 = run_at(1);
  const auto r2 = run_at(2);
  const auto r8 = run_at(8);
  ASSERT_EQ(r1.size(), r2.size());
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].ok() && r2[i].ok() && r8[i].ok());
    for (const auto* other : {&r2[i], &r8[i]}) {
      EXPECT_EQ(r1[i].result->report.makespan_seconds,
                other->result->report.makespan_seconds);
      EXPECT_EQ(r1[i].result->events_processed,
                other->result->events_processed);
      EXPECT_EQ(r1[i].result->faults.drains, other->result->faults.drains);
      EXPECT_EQ(r1[i].result->faults.hazard.predictions,
                other->result->faults.hazard.predictions);
      EXPECT_EQ(r1[i].result->faults.hazard.true_positives,
                other->result->faults.hazard.true_positives);
      EXPECT_EQ(r1[i].result->faults.checkpointed_compute_seconds,
                other->result->faults.checkpointed_compute_seconds);
    }
  }
}

}  // namespace
