// Tests for the paper's future-work features implemented by this library:
// elastic clusters + the EC scaling policy, per-class QRSM surfaces,
// position-aware chunking, and bursting to a list of EC sites.
#include <gtest/gtest.h>

#include <stdexcept>

#include "closure_events.hpp"
#include "compute/cluster.hpp"
#include "core/controller.hpp"
#include "harness/world.hpp"
#include "models/per_class_qrsm.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "workload/generator.hpp"

namespace {

using namespace cbs;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

// ---- elastic Cluster -------------------------------------------------------

TEST(ElasticClusterTest, AddMachineIncreasesParallelism) {
  Simulation sim;
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 1);
  for (int i = 0; i < 2; ++i) cluster.submit(10.0, 0, 0);
  cluster.add_machine();
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 2u);
  // Second task starts immediately on the new machine.
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 10.0);
  EXPECT_DOUBLE_EQ(owner.tasks[1].completed, 10.0);
  EXPECT_EQ(cluster.machine_count(), 2u);
}

TEST(ElasticClusterTest, RemoveIdleMachineImmediately) {
  Simulation sim;
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 3);
  EXPECT_TRUE(cluster.remove_machine());
  EXPECT_EQ(cluster.machine_count(), 2u);
}

TEST(ElasticClusterTest, NeverScalesToZero) {
  Simulation sim;
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 1);
  EXPECT_FALSE(cluster.remove_machine());
  EXPECT_EQ(cluster.machine_count(), 1u);
}

TEST(ElasticClusterTest, BusyMachineDrainsBeforeRetiring) {
  Simulation sim;
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 1);
  cluster.submit(10.0, 0, 0);
  cluster.add_machine();          // now 2 machines
  EXPECT_TRUE(cluster.remove_machine());  // removes the idle new one
  EXPECT_EQ(cluster.machine_count(), 1u);
  EXPECT_TRUE(cluster.remove_machine() == false);  // only the busy one left
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 10.0);  // running task unaffected
}

TEST(ElasticClusterTest, RetiredSlotIsReused) {
  Simulation sim;
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 2);
  EXPECT_TRUE(cluster.remove_machine());
  const std::size_t idx = cluster.add_machine();
  EXPECT_LT(idx, 2u);  // reused a slot instead of growing
  EXPECT_EQ(cluster.machine_count(), 2u);
  EXPECT_EQ(cluster.machine_slots(), 2u);
}

TEST(ElasticClusterTest, ProvisionedMachineSecondsIntegrate) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  compute::Cluster cluster(sim, owner, 0, "c", 2);
  events.at(10.0, [&] { cluster.add_machine(); });
  events.at(20.0, [&] { cluster.remove_machine(); });
  events.at(30.0, [&] {});
  sim.run();
  // 2 machines for 10s, 3 for 10s, 2 for 10s = 70 machine-seconds.
  EXPECT_DOUBLE_EQ(cluster.provisioned_machine_seconds(), 70.0);
}

// ---- elastic EC policy in the controller -----------------------------------

TEST(ElasticEcTest, ScalesUpUnderBacklogAndDownWhenIdle) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(1));
  core::ControllerConfig cfg;
  cfg.scheduler = core::SchedulerKind::kGreedy;
  cfg.estimator = core::EstimatorKind::kOracle;
  cfg.probe_interval = 0.0;
  core::EcSiteConfig& ec = cfg.ec_sites[0];
  ec.uplink.base_rate = 5.0e6;
  ec.uplink.per_connection_cap = 5.0e6;
  ec.uplink.noise_sigma = 0.0;
  ec.uplink.setup_latency = 0.0;
  ec.downlink = ec.uplink;
  cfg.bandwidth_prior_rate = 5.0e6;
  cfg.ic_machines = 1;
  ec.machines = 1;
  ec.job_overhead_seconds = 0.0;
  cfg.elastic_ec.enabled = true;
  cfg.elastic_ec.max_machines = 4;
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(2));

  // A single huge batch: IC (1 machine) clogs, greedy bursts heavily, the
  // 1-machine EC queues far beyond the grow threshold.
  workload::Batch batch;
  batch.batch_index = 0;
  for (int i = 0; i < 30; ++i) {
    workload::Document d;
    d.doc_id = static_cast<std::uint64_t>(i + 1);
    d.features.size_mb = 80.0;
    d.features.pages = 80;
    d.output_size_mb = 80.0;
    batch.documents.push_back(d);
  }
  ctl.on_batch(batch);
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_GT(ctl.scale_ups(), 0u);
  // By the end of the run the policy has either kept the extra capacity or
  // (more likely) released it once the queue drained.
  EXPECT_TRUE(ctl.ec_cluster().machine_count() > 1u || ctl.scale_downs() > 0u);
  // The elastic denominator integrates the provisioning level over time.
  EXPECT_GT(ctl.ec_cluster().provisioned_machine_seconds(),
            static_cast<double>(sim.now()));
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "");
}

// ---- per-class QRSM -----------------------------------------------------------

TEST(PerClassQrsmTest, FallsBackToPooledWhenClassIsCold) {
  models::PerClassQrsmEstimator estimator;
  workload::Document d;
  d.features.type = workload::JobType::kBook;
  EXPECT_FALSE(estimator.class_active(workload::JobType::kBook));
  EXPECT_GT(estimator.estimate_seconds(d), 0.0);  // pooled floor answers
}

TEST(PerClassQrsmTest, ClassModelActivatesAfterEnoughObservations) {
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(3));
  workload::WorkloadGenerator gen({}, truth, RngStream(4));
  models::PerClassQrsmEstimator estimator({.min_class_observations = 60});
  // Stream until at least one class crosses the threshold.
  for (int i = 0; i < 900; ++i) {
    const auto d = gen.next();
    estimator.observe(d, truth.expected_seconds(d.features));
  }
  bool any_active = false;
  for (const auto type : workload::kAllJobTypes) {
    if (estimator.class_active(type)) any_active = true;
  }
  EXPECT_TRUE(any_active);
}

TEST(PerClassQrsmTest, PretrainSeedsAllModels) {
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(5));
  workload::WorkloadGenerator gen({}, truth, RngStream(6));
  models::PerClassQrsmEstimator estimator;
  const auto docs = gen.batch(300);
  std::vector<double> y;
  for (const auto& d : docs) y.push_back(truth.expected_seconds(d.features));
  estimator.pretrain(docs, y);
  EXPECT_TRUE(estimator.pooled().is_fitted());
  // Accuracy on held-out docs.
  workload::WorkloadGenerator held({}, truth, RngStream(7));
  for (int i = 0; i < 50; ++i) {
    const auto d = held.next();
    const double actual = truth.expected_seconds(d.features);
    EXPECT_NEAR(estimator.estimate_seconds(d), actual, 0.15 * actual + 8.0);
  }
}

TEST(PerClassQrsmTest, WorksAsControllerEstimator) {
  Simulation sim;
  workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(8));
  auto cfg = core::default_controller_config();
  cfg.scheduler = core::SchedulerKind::kOrderPreserving;
  cfg.estimator = core::EstimatorKind::kPerClassQrsm;
  core::CloudBurstController ctl(sim, cfg, truth, RngStream(9));
  workload::WorkloadGenerator gen({}, truth, RngStream(10));
  const auto docs = gen.batch(150);
  std::vector<double> y;
  for (const auto& d : docs) y.push_back(truth.sample_seconds(d.features));
  ctl.pretrain(docs, y);

  workload::Batch batch;
  batch.batch_index = 0;
  batch.documents = gen.batch(10);
  ctl.on_batch(batch);
  sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
}

// ---- a list of EC sites (multi-provider bursting, §VII) ----------------------

/// A flat, noise-free pipe of `rate` bytes/s each way.
core::EcSiteConfig flat_site(const char* name, double rate) {
  core::EcSiteConfig site;
  site.name = name;
  site.job_overhead_seconds = 0.0;
  site.uplink.base_rate = rate;
  site.uplink.per_connection_cap = rate;
  site.uplink.noise_sigma = 0.0;
  site.uplink.setup_latency = 0.0;
  site.downlink = site.uplink;
  return site;
}

/// Order Preserving with the oracle behind a 2-machine IC, large documents,
/// no probes, and two sites: site 0's pipe is 10x faster than site 1's.
harness::Scenario two_site_scenario(std::uint64_t seed) {
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased,
      seed);
  // The controller starts from a raw ControllerConfig, not the calibrated
  // default test bed (the scheduler is order-preserving in both).
  static_cast<core::ControllerConfig&>(s) = core::ControllerConfig{};
  s.estimator = core::EstimatorKind::kOracle;
  s.truth.noise_sigma = 0.0;
  s.num_batches = 2;
  s.ic_machines = 2;
  s.params.slack_safety_margin = 0.0;
  s.probe_interval = 0.0;
  s.bandwidth_prior_rate = 1.0e6;
  s.ec_sites = {flat_site("ec-fast", 4.0e6), flat_site("ec-slow", 0.4e6)};
  return s;
}

/// Runs the scenario to completion; result() throws on a lost job or an
/// outcome invariant violation.
struct SiteRun {
  std::vector<std::size_t> bursts;
  harness::RunResult result;
};
SiteRun run_sites(const harness::Scenario& s) {
  harness::ScenarioWorld world(s);
  world.run();
  SiteRun run;
  for (std::size_t i = 0; i < world.controller().site_count(); ++i) {
    run.bursts.push_back(world.controller().site(i).bursts);
  }
  run.result = world.result();
  return run;
}

TEST(EcSitesTest, CompletesAllJobsWithValidOutcomes) {
  const SiteRun run = run_sites(two_site_scenario(12));
  EXPECT_GT(run.result.outcomes.size(), 10u);
  EXPECT_EQ(cbs::sla::validate_outcomes(run.result.outcomes), "");
  EXPECT_GT(run.bursts[0] + run.bursts[1], 0u);
}

TEST(EcSitesTest, PrefersTheFasterProvider) {
  const SiteRun run = run_sites(two_site_scenario(14));
  ASSERT_EQ(run.bursts.size(), 2u);
  EXPECT_GT(run.bursts[0] + run.bursts[1], 0u);
  EXPECT_GE(run.bursts[0], run.bursts[1]);  // the 10x faster pipe wins
}

TEST(EcSitesTest, SpillsToSecondSiteWhenFirstSaturates) {
  harness::Scenario s = two_site_scenario(16);
  // Two equal sites: once one queues up, the other is believed faster.
  s.ec_sites[1] = flat_site("ec-b", 4.0e6);
  const SiteRun run = run_sites(s);
  ASSERT_GE(run.bursts[0] + run.bursts[1], 4u);
  EXPECT_GT(run.bursts[0], 0u);
  EXPECT_GT(run.bursts[1], 0u);
}

TEST(EcSitesTest, SurvivesNoisyPathsAndProbes) {
  harness::Scenario s = two_site_scenario(40);
  s.truth.noise_sigma = 0.3;  // noisy runtimes
  for (auto& site : s.ec_sites) {
    site.uplink.noise_sigma = 0.3;
    site.downlink.noise_sigma = 0.3;
  }
  s.probe_interval = 60.0;  // probing enabled on every site
  const SiteRun run = run_sites(s);
  EXPECT_EQ(cbs::sla::validate_outcomes(run.result.outcomes), "");
}

TEST(EcSitesTest, DeterministicReplay) {
  harness::Scenario s = two_site_scenario(50);
  s.truth.noise_sigma = 0.3;
  const auto completions = [&s] {
    std::vector<double> out;
    for (const auto& o : run_sites(s).result.outcomes) out.push_back(o.completed);
    return out;
  };
  EXPECT_EQ(completions(), completions());
}

TEST(EcSitesTest, EmptySiteListIsRejected) {
  harness::Scenario s = two_site_scenario(19);
  s.ec_sites.clear();
  EXPECT_THROW(harness::ScenarioWorld world(s), std::invalid_argument);
}

}  // namespace
