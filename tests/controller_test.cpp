#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "simcore/simulation.hpp"
#include "sla/metrics.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace cbs::core;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::sla::Placement;

/// A tiny deterministic rig: flat fast pipe, no noise, no probing, oracle
/// estimator, noise-free ground truth — controller behaviour is exact.
struct Rig {
  Simulation sim;
  cbs::workload::GroundTruthModel truth{{.noise_sigma = 0.0}, RngStream(1)};

  static ControllerConfig config(SchedulerKind kind) {
    ControllerConfig cfg;  // flat links, no diurnal, defaults below
    cfg.scheduler = kind;
    cfg.estimator = EstimatorKind::kOracle;
    cfg.probe_interval = 0.0;  // no probes: event counts stay minimal
    EcSiteConfig& ec = cfg.ec_sites[0];
    ec.uplink.base_rate = 1.0e6;
    ec.uplink.per_connection_cap = 1.0e6;
    ec.uplink.noise_sigma = 0.0;
    ec.uplink.setup_latency = 0.0;
    ec.downlink = ec.uplink;
    cfg.bandwidth_estimator.prior_rate = 1.0e6;
    cfg.ic_machines = 2;
    ec.machines = 1;
    ec.job_overhead_seconds = 0.0;
    cfg.params.variability_threshold_mb = 1e9;  // no chunking unless asked
    cfg.params.slack_safety_margin = 0.0;
    return cfg;
  }

  cbs::workload::Batch batch(std::size_t index,
                             const std::vector<double>& sizes_mb) {
    cbs::workload::Batch b;
    b.batch_index = index;
    b.arrival_time = sim.now();
    std::uint64_t id = next_doc_id_;
    for (double s : sizes_mb) {
      cbs::workload::Document d;
      d.doc_id = id++;
      d.features.size_mb = s;
      d.features.pages = std::max(1, static_cast<int>(s));
      d.output_size_mb = s;  // 1:1 output for easy arithmetic
      b.documents.push_back(d);
    }
    next_doc_id_ = id;
    return b;
  }

  std::uint64_t next_doc_id_ = 1;
};

TEST(ControllerTest, IcOnlyRunsEverythingInternally) {
  Rig rig;
  CloudBurstController ctl(rig.sim, Rig::config(SchedulerKind::kIcOnly),
                           rig.truth, RngStream(2));
  ctl.on_batch(rig.batch(0, {10.0, 20.0, 30.0}));
  rig.sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  ASSERT_EQ(ctl.outcomes().size(), 3u);
  for (const auto& o : ctl.outcomes()) {
    EXPECT_EQ(o.placement, Placement::kInternal);
    EXPECT_GT(o.completed, 0.0);
  }
  EXPECT_DOUBLE_EQ(ctl.uplink().total_bytes_delivered(), 0.0);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "");
}

TEST(ControllerTest, EveryKindButLookaheadAdmitsABatch) {
  for (const SchedulerKind kind :
       {SchedulerKind::kIcOnly, SchedulerKind::kGreedy,
        SchedulerKind::kOrderPreserving, SchedulerKind::kBandwidthSplit,
        SchedulerKind::kRandom}) {
    Rig rig;
    CloudBurstController ctl(rig.sim, Rig::config(kind), rig.truth,
                             RngStream(2));
    EXPECT_EQ(ctl.site(0).upload_queues.num_classes(), upload_classes(kind))
        << to_string(kind);
    ctl.on_batch(rig.batch(0, {10.0, 20.0, 30.0}));
    rig.sim.run();
    EXPECT_EQ(ctl.outstanding_jobs(), 0u) << to_string(kind);
    EXPECT_EQ(ctl.outcomes().size(), 3u) << to_string(kind);
    EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "")
        << to_string(kind);
  }
}

// A lookahead candidate is admitted into sites built for the run's own
// scheduler. Bandwidth-split into single-class sites once aborted on an
// assert deep in Algorithm 3; it is now refused before anything changes.
TEST(ControllerTest, AdmissionRefusesAPolicyTheSitesCannotCarry) {
  Rig rig;
  CloudBurstController ctl(rig.sim,
                           Rig::config(SchedulerKind::kOrderPreserving),
                           rig.truth, RngStream(2));
  try {
    ctl.on_batch(rig.batch(0, {10.0}), SchedulerKind::kBandwidthSplit);
    ADD_FAILURE() << "bandwidth-split admitted into one-class sites";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("op-bandwidth-split: it needs 3 "
                                         "upload classes per site and the "
                                         "sites have 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ctl.on_batch(rig.batch(0, {10.0}), SchedulerKind::kLookahead),
               std::invalid_argument);
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  // Every other kind is admitted into the same sites.
  ctl.on_batch(rig.batch(0, {10.0}), SchedulerKind::kGreedy);
  ctl.on_batch(rig.batch(0, {10.0}), SchedulerKind::kRandom);
  rig.sim.run();
  EXPECT_EQ(ctl.outcomes().size(), 2u);
}

TEST(ControllerTest, EcPipelineMovesBytesThroughStore) {
  Rig rig;
  // Greedy + a saturated IC forces bursting.
  auto cfg = Rig::config(SchedulerKind::kGreedy);
  cfg.ic_machines = 1;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(3));
  // Many medium jobs: IC clogs, some of these must burst.
  std::vector<double> sizes(8, 50.0);
  ctl.on_batch(rig.batch(0, sizes));
  rig.sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  std::size_t bursted = 0;
  for (const auto& o : ctl.outcomes()) {
    if (o.bursted()) ++bursted;
  }
  ASSERT_GT(bursted, 0u);
  // Uplink moved exactly the bursted inputs; downlink the outputs (1:1).
  EXPECT_NEAR(ctl.uplink().total_bytes_delivered(),
              static_cast<double>(bursted) * 50.0e6, 1.0);
  EXPECT_NEAR(ctl.downlink().total_bytes_delivered(),
              static_cast<double>(bursted) * 50.0e6, 1.0);
  // The store drained completely.
  EXPECT_DOUBLE_EQ(ctl.store().occupancy_bytes(), 0.0);
  EXPECT_GT(ctl.store().peak_occupancy_bytes(), 0.0);
}

// ---- a job's MapReduce work: a map task, then a merge task --------------

/// The controller's merge cost, seconds per output MB (the rig's documents
/// output their input size).
constexpr double kMergeSecondsPerMb = 0.05;

/// IC-only on `ic_machines` machines.
ControllerConfig mapreduce_config(std::size_t ic_machines) {
  ControllerConfig cfg = Rig::config(SchedulerKind::kIcOnly);
  cfg.ic_machines = ic_machines;
  return cfg;
}

/// Each finished job's (seq id, completion time), in completion order.
std::vector<std::pair<std::uint64_t, double>> completions(
    const CloudBurstController& ctl) {
  std::vector<std::pair<std::uint64_t, double>> done;
  for (const auto& o : ctl.outcomes()) done.emplace_back(o.seq_id, o.completed);
  return done;
}

TEST(ControllerTest, MapThenMergeFinishesAJob) {
  Rig rig;
  // 10 MB of output: a 0.5 s merge.
  CloudBurstController ctl(rig.sim, mapreduce_config(2), rig.truth,
                           RngStream(2));
  const cbs::workload::Batch batch = rig.batch(0, {10.0});
  const double map = rig.truth.realized_seconds(batch.documents[0]);
  ctl.on_batch(batch);
  rig.sim.run_until(map);
  // The map is done; the merge runs.
  EXPECT_TRUE(ctl.outcomes().empty());
  EXPECT_EQ(ctl.ic_cluster().running_tasks(), 1u);
  EXPECT_EQ(ctl.outstanding_jobs(), 1u);
  rig.sim.run();
  const auto done = completions(ctl);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].first, 1u);
  EXPECT_DOUBLE_EQ(done[0].second, map + 10.0 * kMergeSecondsPerMb);
}

TEST(ControllerTest, ConcurrentJobsFinishInFcfsOrder) {
  Rig rig;
  CloudBurstController ctl(rig.sim, mapreduce_config(2), rig.truth,
                           RngStream(2));
  const cbs::workload::Batch batch = rig.batch(0, {10.0, 10.0, 10.0});
  const double map = rig.truth.realized_seconds(batch.documents[0]);
  ASSERT_EQ(rig.truth.realized_seconds(batch.documents[2]), map);
  ctl.on_batch(batch);
  rig.sim.run();
  const auto done = completions(ctl);
  ASSERT_EQ(done.size(), 3u);
  // FCFS at task level preserves job completion order.
  EXPECT_EQ(done[0].first, 1u);
  EXPECT_EQ(done[1].first, 2u);
  EXPECT_EQ(done[2].first, 3u);
  // Job 3's map queues for the first free machine; its merge follows.
  EXPECT_DOUBLE_EQ(done[2].second, 2.0 * map + 10.0 * kMergeSecondsPerMb);
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
}

TEST(ControllerTest, ForkMidJobFinishesLikeItsSource) {
  // Two jobs on one machine: mid-way through the first map, the fork
  // carries a running map, a queued map and two jobs waiting to merge.
  Rig rig;
  // Merges of 0.5 s and 1 s.
  CloudBurstController a(rig.sim, mapreduce_config(1), rig.truth,
                         RngStream(2));
  const cbs::workload::Batch batch = rig.batch(0, {10.0, 20.0});
  const double map1 = rig.truth.realized_seconds(batch.documents[0]);
  const double map2 = rig.truth.realized_seconds(batch.documents[1]);
  a.on_batch(batch);
  rig.sim.run_until(map1 / 2.0);
  ASSERT_EQ(a.ic_cluster().running_tasks(), 1u);
  ASSERT_EQ(a.ic_cluster().queued_tasks(), 1u);

  Simulation sim_b(rig.sim);
  CloudBurstController b(sim_b, a);
  sim_b.verify_fork();

  rig.sim.run();
  sim_b.run();
  const auto done = completions(a);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(completions(b), done);
  // Job 1's merge queues behind job 2's map (FCFS): map1 + map2 + 0.5,
  // then + 1.
  EXPECT_DOUBLE_EQ(done[0].second, map1 + map2 + 10.0 * kMergeSecondsPerMb);
  EXPECT_DOUBLE_EQ(done[1].second, map1 + map2 + 30.0 * kMergeSecondsPerMb);
  EXPECT_EQ(b.outstanding_jobs(), 0u);
}

TEST(ControllerTest, SequenceIdsSpanBatches) {
  Rig rig;
  CloudBurstController ctl(rig.sim, Rig::config(SchedulerKind::kIcOnly),
                           rig.truth, RngStream(4));
  ctl.on_batch(rig.batch(0, {10.0, 10.0}));
  rig.sim.run_until(rig.sim.now() + 1.0);
  ctl.on_batch(rig.batch(1, {10.0}));
  rig.sim.run();
  ASSERT_EQ(ctl.outcomes().size(), 3u);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "");
  std::size_t batch1_jobs = 0;
  for (const auto& o : ctl.outcomes()) {
    if (o.batch_index == 1) {
      ++batch1_jobs;
      EXPECT_EQ(o.seq_id, 3u);
    }
  }
  EXPECT_EQ(batch1_jobs, 1u);
}

TEST(ControllerTest, QrsmLearnsDuringRun) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kIcOnly);
  cfg.estimator = EstimatorKind::kQrsm;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(5));
  // Feed enough jobs for the online fit to trigger (needs > quadratic dim).
  cbs::workload::WorkloadGenerator gen({}, rig.truth, RngStream(6));
  for (std::size_t b = 0; b < 5; ++b) {
    cbs::workload::Batch batch;
    batch.batch_index = b;
    batch.arrival_time = rig.sim.now();
    batch.documents = gen.batch(16);
    ctl.on_batch(batch);
    rig.sim.run();
  }
  const auto* qrsm = dynamic_cast<const cbs::models::QrsmEstimator*>(
      &ctl.service_estimator());
  ASSERT_NE(qrsm, nullptr);
  EXPECT_TRUE(qrsm->model().is_fitted());
  EXPECT_GT(qrsm->model().last_fit()->r_squared, 0.99);  // noiseless labels
}

TEST(ControllerTest, PretrainSeedsTheModel) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kIcOnly);
  cfg.estimator = EstimatorKind::kQrsm;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(7));
  cbs::workload::WorkloadGenerator gen({}, rig.truth, RngStream(8));
  const auto docs = gen.batch(120);
  std::vector<double> runtimes;
  for (const auto& d : docs) {
    runtimes.push_back(rig.truth.expected_seconds(d.features));
  }
  ctl.pretrain(docs, runtimes);
  const auto* qrsm = dynamic_cast<const cbs::models::QrsmEstimator*>(
      &ctl.service_estimator());
  ASSERT_NE(qrsm, nullptr);
  EXPECT_TRUE(qrsm->model().is_fitted());
}

TEST(ControllerTest, ProbingStopsWhenRunEnds) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kIcOnly);
  cfg.probe_interval = 30.0;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(9));
  ctl.on_batch(rig.batch(0, {10.0}));
  rig.sim.run();  // must terminate: probes stop once outstanding == 0
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_LT(rig.sim.now(), 200.0);
}

TEST(ControllerTest, ProbesFeedTheEstimator) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kIcOnly);
  cfg.probe_interval = 5.0;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(10));
  ctl.on_batch(rig.batch(0, {200.0, 200.0}));  // long enough for 2+ probes
  rig.sim.run();
  EXPECT_GT(ctl.uplink_estimator().observation_count(), 2u);
  EXPECT_GT(ctl.downlink_estimator().observation_count(), 2u);
}

TEST(ControllerTest, ReschedulerPushesOutWhenUploadIdles) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kOrderPreserving);
  cfg.enable_rescheduler = true;
  cfg.ic_machines = 1;
  // The pipe is fast but the scheduler's prior says it is slow: Op bursts
  // little at batch time, then learns the real rate from its first uploads
  // — at which point idle-pipe push-outs become attractive (the adaptive
  // behaviour §IV.D describes).
  EcSiteConfig& ec = cfg.ec_sites[0];
  ec.uplink.base_rate = 5.0e6;
  ec.uplink.per_connection_cap = 5.0e6;
  ec.downlink = ec.uplink;
  cfg.bandwidth_estimator.prior_rate = 0.4e6;
  ec.machines = 2;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(11));
  // One huge backlog: Op bursts some; when uploads drain and IC still has
  // waiting jobs, push-outs should fire.
  std::vector<double> sizes(24, 60.0);
  ctl.on_batch(rig.batch(0, sizes));
  rig.sim.run();
  EXPECT_EQ(ctl.outstanding_jobs(), 0u);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "");
  EXPECT_GT(ctl.push_outs() + ctl.pull_backs(), 0u);
}

TEST(ControllerTest, ChunkedJobsGetFreshSeqAndDocIds) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kOrderPreserving);
  cfg.params.variability_threshold_mb = 30.0;
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(12));
  ctl.on_batch(rig.batch(0, {200.0, 5.0, 5.0}));
  rig.sim.run();
  EXPECT_GT(ctl.outcomes().size(), 3u);
  EXPECT_EQ(cbs::sla::validate_outcomes(ctl.outcomes().to_vector()), "");
  // Chunk doc ids live in the dedicated high range.
  bool saw_chunk_id = false;
  for (const auto& o : ctl.outcomes()) {
    if (o.doc_id >= (1ULL << 32)) saw_chunk_id = true;
  }
  EXPECT_TRUE(saw_chunk_id);
}

TEST(ControllerTest, StageLogRecordsThePipeline) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kGreedy);
  cfg.record_stage_log = true;
  cfg.ic_machines = 1;  // force some bursting
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(21));
  ctl.on_batch(rig.batch(0, {50.0, 50.0, 50.0, 50.0, 50.0, 50.0}));
  rig.sim.run();

  // Each job's stages are in causal order and end at kCompleted; bursted
  // jobs pass through the EC pipeline states.
  std::map<std::uint64_t, std::vector<CloudBurstController::StageEvent>> per_job;
  for (const auto& e : ctl.stage_log()) per_job[e.seq_id].push_back(e);
  ASSERT_EQ(per_job.size(), ctl.outcomes().size());
  for (const auto& o : ctl.outcomes()) {
    const auto& events = per_job.at(o.seq_id);
    ASSERT_GE(events.size(), 2u);
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
    EXPECT_EQ(events.back().state, JobState::kCompleted);
    if (o.bursted()) {
      EXPECT_EQ(events.front().state, JobState::kUploadQueued);
      bool saw_download = false;
      for (const auto& e : events) {
        if (e.state == JobState::kDownloading) saw_download = true;
      }
      EXPECT_TRUE(saw_download);
    } else {
      EXPECT_EQ(events.front().state, JobState::kIcWaiting);
    }
  }
}

TEST(ControllerTest, StageLogOffByDefault) {
  Rig rig;
  CloudBurstController ctl(rig.sim, Rig::config(SchedulerKind::kIcOnly),
                           rig.truth, RngStream(22));
  ctl.on_batch(rig.batch(0, {10.0}));
  rig.sim.run();
  EXPECT_TRUE(ctl.stage_log().empty());
}

TEST(ControllerTest, UtilizationNeverExceedsOne) {
  Rig rig;
  auto cfg = Rig::config(SchedulerKind::kGreedy);
  CloudBurstController ctl(rig.sim, cfg, rig.truth, RngStream(13));
  ctl.on_batch(rig.batch(0, {80.0, 120.0, 40.0, 10.0, 250.0}));
  rig.sim.run();
  const double makespan = cbs::sla::makespan(ctl.outcomes().to_vector());
  const double ic_util = cbs::sla::set_utilization(
      ctl.ic_cluster().total_busy_time(), ctl.ic_cluster().machine_count(),
      makespan);
  const double ec_util = cbs::sla::set_utilization(
      ctl.ec_cluster().total_busy_time(), ctl.ec_cluster().machine_count(),
      makespan);
  EXPECT_GE(ic_util, 0.0);
  EXPECT_LE(ic_util, 1.0 + 1e-9);
  EXPECT_GE(ec_util, 0.0);
  EXPECT_LE(ec_util, 1.0 + 1e-9);
}

/// Runs `batches` through a world on the default scenario.
std::vector<cbs::sla::JobOutcome> run_batches(
    std::vector<cbs::workload::Batch> batches) {
  cbs::harness::Scenario scenario;
  scenario.estimator = EstimatorKind::kOracle;
  cbs::harness::ScenarioWorld world(scenario, std::move(batches));
  world.run();
  return world.result().outcomes;
}

TEST(TraceReplayTest, SavedTraceReplaysTheRunThatProducedIt) {
  // generate -> write_file -> read_file -> run must equal generate -> run:
  // the trace carries every double bit-exactly.
  cbs::workload::GroundTruthModel truth({}, RngStream(1));
  cbs::workload::WorkloadGenerator gen({}, truth, RngStream(2));
  cbs::workload::BatchArrivalProcess arrivals({.num_batches = 4}, gen,
                                              RngStream(3));
  const auto batches = arrivals.generate_all();
  const std::string path = ::testing::TempDir() + "cbs_trace_replay.csv";
  cbs::workload::trace::write_file(path, batches);
  const auto reloaded = cbs::workload::trace::read_file(path);
  std::remove(path.c_str());

  const auto direct = run_batches(batches);
  const auto replayed = run_batches(reloaded);
  ASSERT_FALSE(direct.empty());
  ASSERT_EQ(direct.size(), replayed.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].seq_id, replayed[i].seq_id) << "outcome " << i;
    EXPECT_EQ(direct[i].input_mb, replayed[i].input_mb) << "outcome " << i;
    EXPECT_EQ(direct[i].true_service_seconds, replayed[i].true_service_seconds)
        << "outcome " << i;
    EXPECT_EQ(direct[i].placement, replayed[i].placement) << "outcome " << i;
    EXPECT_EQ(direct[i].completed, replayed[i].completed) << "outcome " << i;
  }
}

}  // namespace
