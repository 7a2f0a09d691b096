#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/belief_state.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/upload_queues.hpp"
#include "models/estimator.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"
#include "workload/ground_truth.hpp"

namespace {

using namespace cbs::core;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::sla::Placement;
using cbs::workload::Document;

/// Estimator with a fixed per-MB rate — makes belief arithmetic exact.
class FixedRateEstimator final : public cbs::models::ProcessingTimeEstimator {
 public:
  explicit FixedRateEstimator(double seconds_per_mb)
      : seconds_per_mb_(seconds_per_mb) {}
  [[nodiscard]] double estimate_seconds(const Document& doc) const override {
    return doc.features.size_mb * seconds_per_mb_;
  }
  [[nodiscard]] std::unique_ptr<cbs::models::ProcessingTimeEstimator> clone()
      const override {
    return std::make_unique<FixedRateEstimator>(*this);
  }

 private:
  double seconds_per_mb_;
};

Document make_doc(std::uint64_t id, double size_mb, double output_mb = 0.0) {
  Document d;
  d.doc_id = id;
  d.features.size_mb = size_mb;
  d.features.pages = static_cast<int>(size_mb);
  d.output_size_mb = output_mb > 0.0 ? output_mb : size_mb;
  return d;
}

/// A one-slot pipe believed to run at `rate` bytes/s each way.
cbs::net::BandwidthEstimator::Config pipe(double rate = 1.0e6) {
  return {.slots_per_day = 1, .prior_rate = rate};
}

/// An EC site of `machines` speed-1 machines.
EcSiteConfig ec_site(std::size_t machines, double overhead_seconds = 0.0) {
  EcSiteConfig site;
  site.machines = machines;
  site.job_overhead_seconds = overhead_seconds;
  return site;
}

/// A belief at 1 s per MB over 4 IC machines and one 2-machine EC site.
struct BeliefFixture {
  BeliefState belief{std::make_unique<FixedRateEstimator>(1.0), /*ic*/ 4};
  BeliefFixture() { belief.add_ec_site(ec_site(2), pipe()); }
};

/// ft_ec and commit_ec with the belief's own service estimate, as a
/// scheduler prices and commits.
EcEstimate ft_ec(const BeliefState& belief, const Document& doc, double now) {
  return belief.ft_ec(doc, belief.estimate_service(doc), now);
}
void commit_ec(BeliefState& belief, std::uint64_t seq, const Document& doc,
               const EcEstimate& estimate) {
  belief.commit_ec(seq, doc, belief.estimate_service(doc), estimate);
}

// ---- BeliefState -----------------------------------------------------------

TEST(BeliefStateTest, FtIcUsesBacklogAndJobRate) {
  BeliefFixture fx;
  // Empty system: a 100 s job runs 100 s on one machine.
  EXPECT_DOUBLE_EQ(fx.belief.ft_ic(100.0, 50.0), 150.0);
  // 400 s of backlog drains at rate 4.
  fx.belief.commit_ic(1, 400.0);
  EXPECT_DOUBLE_EQ(fx.belief.ft_ic(100.0, 50.0), 50.0 + 100.0 + 100.0);
}

TEST(BeliefStateTest, FtEcBreakdown) {
  BeliefFixture fx;
  // 100 MB in, 100 MB out at 1 MB/s both ways; service 100 s on 1 EC slot.
  const EcEstimate e = ft_ec(fx.belief, make_doc(1, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(e.upload_seconds, 100.0);
  EXPECT_DOUBLE_EQ(e.ec_wait_seconds, 0.0);
  EXPECT_DOUBLE_EQ(e.processing_seconds, 100.0);
  EXPECT_DOUBLE_EQ(e.download_seconds, 100.0);
  EXPECT_DOUBLE_EQ(e.finish, 300.0);
}

TEST(BeliefStateTest, FtEcSeesUploadBacklog) {
  BeliefFixture fx;
  const EcEstimate before = ft_ec(fx.belief, make_doc(1, 100.0), 0.0);
  commit_ec(fx.belief, 10, make_doc(10, 50.0), before);
  // 50 MB queued ahead -> upload takes 150 s now.
  const EcEstimate after = ft_ec(fx.belief, make_doc(2, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(after.upload_seconds, 150.0);
}

TEST(BeliefStateTest, EcBacklogDrainsDuringUpload) {
  BeliefFixture fx;
  commit_ec(fx.belief, 10, make_doc(10, 100.0),
            ft_ec(fx.belief, make_doc(10, 100.0), 0.0));
  // 100 s of believed EC work; during our 200 s upload (100 queued + 100
  // own) the EC (capacity 2) fully drains it -> no wait.
  const EcEstimate e = ft_ec(fx.belief, make_doc(2, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(e.ec_wait_seconds, 0.0);
}

TEST(BeliefStateTest, SlackIsMaxOfIcDrainAndEcFinishes) {
  BeliefFixture fx;
  EXPECT_DOUBLE_EQ(fx.belief.slack(100.0), 100.0);  // empty: fallback now
  fx.belief.commit_ic(1, 400.0);                    // drains at t+100
  EXPECT_DOUBLE_EQ(fx.belief.slack(100.0), 200.0);
  EcEstimate far;
  far.finish = 900.0;
  commit_ec(fx.belief, 2, make_doc(2, 10.0), far);
  EXPECT_DOUBLE_EQ(fx.belief.slack(100.0), 900.0);
}

TEST(BeliefStateTest, CompletionsReduceBacklog) {
  BeliefFixture fx;
  fx.belief.commit_ic(1, 100.0);
  fx.belief.commit_ic(2, 60.0);
  EXPECT_DOUBLE_EQ(fx.belief.ic_backlog_standard_seconds(), 160.0);
  fx.belief.on_ic_complete(1);
  EXPECT_DOUBLE_EQ(fx.belief.ic_backlog_standard_seconds(), 60.0);
  EXPECT_EQ(fx.belief.outstanding_ic_jobs(), 1u);
}

TEST(BeliefStateTest, UploadCompletionShrinksByteBacklog) {
  BeliefFixture fx;
  const Document d = make_doc(1, 30.0);
  commit_ec(fx.belief, 1, d, ft_ec(fx.belief, d, 0.0));
  EXPECT_DOUBLE_EQ(fx.belief.upload_backlog_bytes(), 30.0e6);
  fx.belief.on_upload_complete(30.0e6);
  EXPECT_DOUBLE_EQ(fx.belief.upload_backlog_bytes(), 0.0);
}

TEST(BeliefStateTest, RetractUndoesCommit) {
  BeliefFixture fx;
  fx.belief.commit_ic(1, 100.0);
  fx.belief.retract_ic(1);
  EXPECT_DOUBLE_EQ(fx.belief.ic_backlog_standard_seconds(), 0.0);
  const Document d = make_doc(2, 40.0);
  commit_ec(fx.belief, 2, d, ft_ec(fx.belief, d, 0.0));
  fx.belief.retract_ec(2, d.input_bytes());
  EXPECT_EQ(fx.belief.outstanding_ec_jobs(), 0u);
  EXPECT_DOUBLE_EQ(fx.belief.upload_backlog_bytes(), 0.0);
}

TEST(BeliefStateTest, TransientViewUsesLastObservation) {
  BeliefFixture fx;
  // EWMA != last after a second sample.
  fx.belief.uplink(0).observe(0.0, 2.0e6);
  fx.belief.uplink(0).observe(1.0, 0.5e6);
  fx.belief.set_bandwidth_view(BandwidthView::kTransient);
  const EcEstimate e =
      fx.belief.ft_ec_job_level(make_doc(1, 100.0), 100.0, 0.0, {0.0});
  EXPECT_DOUBLE_EQ(e.upload_seconds, 100.0e6 / 0.5e6);
}

TEST(BeliefStateTest, JobLevelWaitsBehindObservedDownloads) {
  BeliefFixture fx;
  // 100 MB of output already on the downlink: the job-level view queues
  // behind it; ft_ec prices only the job's own output.
  const EcEstimate e =
      fx.belief.ft_ec_job_level(make_doc(1, 100.0), 100.0, 0.0, {100.0e6});
  EXPECT_DOUBLE_EQ(e.download_seconds, 200.0);
  const EcEstimate full = ft_ec(fx.belief, make_doc(1, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(full.download_seconds, 100.0);
}

/// The fixture plus a second EC site with a 4x faster pipe (site 1).
struct TwoSiteFixture : BeliefFixture {
  TwoSiteFixture() { belief.add_ec_site(ec_site(2), pipe(4.0e6)); }
};

TEST(BeliefStateTest, FtEcPicksTheFastestSite) {
  TwoSiteFixture fx;
  ASSERT_EQ(fx.belief.site_count(), 2u);
  const Document d = make_doc(1, 100.0);
  const EcEstimate e = ft_ec(fx.belief, d, 0.0);
  EXPECT_EQ(e.site, 1u);
  EXPECT_DOUBLE_EQ(e.finish, 25.0 + 100.0 + 25.0);
  // The commitment loads site 1 only: site 0's no-load round trip is
  // unchanged, site 1's upload now queues behind 100 MB.
  commit_ec(fx.belief, 1, d, e);
  EXPECT_DOUBLE_EQ(fx.belief.ec_round_trip_no_load(d, 100.0, 0.0, 0), 300.0);
  EXPECT_DOUBLE_EQ(ft_ec(fx.belief, d, 0.0).upload_seconds, 50.0);
  fx.belief.retract_ec(1, d.input_bytes(), e.site);
  EXPECT_DOUBLE_EQ(fx.belief.upload_backlog_bytes(), 0.0);
}

TEST(BeliefStateTest, EcOverheadEntersProcessing) {
  BeliefState belief(std::make_unique<FixedRateEstimator>(1.0), 4);
  belief.add_ec_site(ec_site(2, 45.0), pipe());
  const EcEstimate e = ft_ec(belief, make_doc(1, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(e.processing_seconds, 145.0);
}

// A fork's belief is a copy: it prices exactly as its source did, memos
// included, and learns apart from it.
TEST(BeliefStateTest, CopyPricesLikeItsSourceAndStaysIndependent) {
  TwoSiteFixture fx;
  BeliefState& src = fx.belief;
  src.uplink(0).observe(0.0, 2.0e6);
  src.uplink(0).observe(1.0, 0.5e6);
  src.downlink(1).observe(1.0, 3.0e6);
  src.commit_ic(1, 400.0);
  const Document queued = make_doc(2, 80.0);
  commit_ec(src, 2, queued, ft_ec(src, queued, 0.0));
  const Document doc = make_doc(3, 120.0);
  const double service = src.estimate_service(doc);
  // Priced once before the copy, so the upload memos cross it warm.
  (void)src.ft_ec_within(doc, service, 5.0, src.slack(5.0), 0.0);

  BeliefState copy(src);
  const auto expect_same = [](const EcEstimate& a, const EcEstimate& b) {
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.upload_seconds, b.upload_seconds);
    EXPECT_EQ(a.ec_wait_seconds, b.ec_wait_seconds);
    EXPECT_EQ(a.processing_seconds, b.processing_seconds);
    EXPECT_EQ(a.download_seconds, b.download_seconds);
    EXPECT_EQ(a.finish, b.finish);
  };
  for (const BandwidthView view :
       {BandwidthView::kLearned, BandwidthView::kTransient}) {
    src.set_bandwidth_view(view);
    copy.set_bandwidth_view(view);
    EXPECT_EQ(copy.estimate_service(doc), service);
    EXPECT_EQ(copy.slack(5.0), src.slack(5.0));
    EXPECT_EQ(copy.ft_ic(service, 5.0), src.ft_ic(service, 5.0));
    expect_same(copy.ft_ec(doc, service, 5.0), src.ft_ec(doc, service, 5.0));
    expect_same(copy.ft_ec_job_level(doc, service, 5.0, {1.0e6, 2.0e6}),
                src.ft_ec_job_level(doc, service, 5.0, {1.0e6, 2.0e6}));
    const auto a = copy.ft_ec_within(doc, service, 5.0, 1.0e4, 0.0);
    const auto b = src.ft_ec_within(doc, service, 5.0, 1.0e4, 0.0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) expect_same(*a, *b);
    EXPECT_EQ(copy.ec_round_trip_no_load(doc, service, 5.0),
              src.ec_round_trip_no_load(doc, service, 5.0));
  }

  // The copy learns a collapsed uplink on site 0; the source does not.
  src.set_bandwidth_view(BandwidthView::kLearned);
  copy.set_bandwidth_view(BandwidthView::kLearned);
  const EcEstimate before = src.ft_ec(doc, service, 5.0);
  copy.uplink(0).observe(4.0, 1.0e3);
  EXPECT_EQ(src.uplink(0).observation_count() + 1,
            copy.uplink(0).observation_count());
  expect_same(src.ft_ec(doc, service, 5.0), before);
  EXPECT_NE(copy.ec_round_trip_no_load(doc, service, 5.0, 0),
            src.ec_round_trip_no_load(doc, service, 5.0, 0));
}

// ---- scheduler context machinery ----------------------------------------

struct SchedulerFixture {
  BeliefFixture fx;
  cbs::workload::GroundTruthModel truth{{.noise_sigma = 0.0}, RngStream(1)};
  SchedulerParams params;
  std::uint64_t next_seq = 1;
  std::uint64_t next_doc_id = 1000;

  SchedulerState state;

  ScheduleContext context(double now = 0.0) {
    return ScheduleContext{
        .now = now,
        .belief = fx.belief,
        .params = params,
        .truth = truth,
        .next_seq = &next_seq,
        .next_doc_id = &next_doc_id,
        .ic_machines = 4,
        .upload_class_backlog_bytes = {0.0, 0.0, 0.0},
        .download_backlog_bytes = {0.0},
    };
  }

  /// Places `docs` under `kind` at time 0 through the one entry point.
  std::vector<ScheduleDecision> schedule(SchedulerKind kind,
                                         std::vector<Document> docs) {
    auto ctx = context();
    return schedule_batch(kind, std::move(docs), ctx, state);
  }
};

TEST(IcOnlySchedulerTest, PlacesEverythingInternally) {
  SchedulerFixture f;
  const auto decisions = f.schedule(SchedulerKind::kIcOnly,
                                    {make_doc(1, 10.0), make_doc(2, 250.0)});
  ASSERT_EQ(decisions.size(), 2u);
  for (const auto& d : decisions) {
    EXPECT_EQ(d.placement, Placement::kInternal);
  }
  EXPECT_EQ(decisions[0].seq_id, 1u);
  EXPECT_EQ(decisions[1].seq_id, 2u);
  EXPECT_EQ(f.fx.belief.outstanding_ic_jobs(), 2u);
}

TEST(GreedySchedulerTest, PicksEarlierFinish) {
  SchedulerFixture f;
  // Preload the IC so ft_ic is slow: 4000 std-s over 4 machines = 1000 s.
  f.fx.belief.commit_ic(999, 4000.0);
  // 100 MB job: ft_ic = 1000 + 100 = 1100 vs ft_ec = 100+100+100 = 300.
  const auto decisions =
      f.schedule(SchedulerKind::kGreedy, {make_doc(1, 100.0)});
  EXPECT_EQ(decisions[0].placement, Placement::kExternal);
}

TEST(GreedySchedulerTest, KeepsJobWhenIcWins) {
  SchedulerFixture f;
  // Empty system: ft_ic = 100 < ft_ec = 300.
  const auto decisions =
      f.schedule(SchedulerKind::kGreedy, {make_doc(1, 100.0)});
  EXPECT_EQ(decisions[0].placement, Placement::kInternal);
}

TEST(GreedySchedulerTest, SeesLiveUploadQueueButTransientBandwidth) {
  SchedulerFixture f;
  f.fx.belief.commit_ic(999, 40000.0);  // force EC for everything
  const auto decisions = f.schedule(
      SchedulerKind::kGreedy,
      {make_doc(1, 100.0), make_doc(2, 100.0), make_doc(3, 100.0)});
  // Each burst enqueues real bytes, so the next decision's upload estimate
  // includes them (100, 200, 300 s at 1 MB/s).
  ASSERT_EQ(decisions.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decisions[i].placement, Placement::kExternal);
    EXPECT_DOUBLE_EQ(decisions[i].ec_estimate.upload_seconds,
                     100.0 * static_cast<double>(i + 1));
  }
}

TEST(OrderPreservingTest, BurstsOnlyWithinSlack) {
  SchedulerFixture f;
  f.params.variability_threshold_mb = 1e9;  // disable chunking here
  f.params.slack_safety_margin = 0.0;
  // First job of an empty system: slack = now -> can never burst.
  const auto d1 =
      f.schedule(SchedulerKind::kOrderPreserving, {make_doc(1, 50.0)});
  EXPECT_EQ(d1[0].placement, Placement::kInternal);
  // Preload a big IC backlog: slack = 40000/4 = 10000 s; a 100 MB round
  // trip (300 s) easily fits.
  f.fx.belief.commit_ic(999, 40000.0);
  const auto d2 =
      f.schedule(SchedulerKind::kOrderPreserving, {make_doc(2, 100.0)});
  EXPECT_EQ(d2[0].placement, Placement::kExternal);
}

TEST(OrderPreservingTest, SafetyMarginTightensAdmission) {
  SchedulerFixture f;
  f.params.variability_threshold_mb = 1e9;
  // Slack = 320/4 = 80 s; round trip of a 25 MB job = 75 s.
  f.fx.belief.commit_ic(999, 320.0);
  f.params.slack_safety_margin = 0.0;
  {
    const auto d =
        f.schedule(SchedulerKind::kOrderPreserving, {make_doc(1, 25.0)});
    EXPECT_EQ(d[0].placement, Placement::kExternal);
  }
  f.params.slack_safety_margin = 20.0;  // 75 + 20 > 80 -> rejected
  {
    const auto d =
        f.schedule(SchedulerKind::kOrderPreserving, {make_doc(2, 25.0)});
    EXPECT_EQ(d[0].placement, Placement::kInternal);
  }
}

TEST(OrderPreservingTest, ChunksHighVarianceWindows) {
  SchedulerFixture f;
  f.params.variability_threshold_mb = 50.0;
  // Sizes 290, 5, 5: sigma >> 50 -> the 290 MB head job gets chunked.
  const auto decisions =
      f.schedule(SchedulerKind::kOrderPreserving,
                 {make_doc(1, 290.0), make_doc(2, 5.0), make_doc(3, 5.0)});
  EXPECT_GT(decisions.size(), 3u);
  EXPECT_TRUE(decisions[0].doc.is_chunk());
  EXPECT_EQ(decisions[0].doc.parent_id, 1u);
  // Seq ids are contiguous from 1.
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    EXPECT_EQ(decisions[i].seq_id, i + 1);
  }
}

TEST(OrderPreservingTest, LowVarianceLeavesJobsIntact) {
  SchedulerFixture f;
  f.params.variability_threshold_mb = 50.0;
  const auto decisions = f.schedule(
      SchedulerKind::kOrderPreserving,
      {make_doc(1, 280.0), make_doc(2, 290.0), make_doc(3, 285.0)});
  EXPECT_EQ(decisions.size(), 3u);
  for (const auto& d : decisions) EXPECT_FALSE(d.doc.is_chunk());
}

// ---- Algorithm 3 (size-interval bounds) -----------------------------------

TEST(BandwidthSplitTest, BoundsPartitionEligibleSizes) {
  SchedulerFixture f;
  f.fx.belief.commit_ic(999, 40000.0);  // everything is burst-eligible
  const std::vector<Document> batch = {
      make_doc(1, 10.0), make_doc(2, 20.0),  make_doc(3, 40.0),
      make_doc(4, 80.0), make_doc(5, 160.0), make_doc(6, 300.0)};
  const auto bounds = compute_size_interval_bounds(
      batch, f.fx.belief, 0.0, 4, {0.0, 0.0, 0.0},
      f.state.size_scratch);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_GT(bounds->small_upper_mb, 0.0);
  EXPECT_GE(bounds->medium_upper_mb, bounds->small_upper_mb);
  EXPECT_LT(bounds->medium_upper_mb, 300.0);
  EXPECT_EQ(bounds->class_of(1.0), 0);
  EXPECT_EQ(bounds->class_of(300.0), 2);
}

TEST(BandwidthSplitTest, NoEligibleJobsMeansNoBounds) {
  SchedulerFixture f;  // empty IC: iload = 0 -> nothing passes line 6
  const std::vector<Document> batch = {make_doc(1, 100.0)};
  const auto bounds = compute_size_interval_bounds(
      batch, f.fx.belief, 0.0, 4, {0.0, 0.0, 0.0},
      f.state.size_scratch);
  EXPECT_FALSE(bounds.has_value());
}

TEST(BandwidthSplitTest, BackloggedQueueGetsFewerJobs) {
  SchedulerFixture f;
  f.fx.belief.commit_ic(999, 40000.0);
  std::vector<Document> batch;
  for (int i = 1; i <= 12; ++i) {
    batch.push_back(make_doc(static_cast<std::uint64_t>(i), 25.0 * i));
  }
  // Small queue heavily backlogged: its left-over capacity shrinks, so the
  // small bound must drop relative to the balanced case.
  const auto balanced = compute_size_interval_bounds(
      batch, f.fx.belief, 0.0, 4, {0.0, 0.0, 0.0},
      f.state.size_scratch);
  const auto skewed = compute_size_interval_bounds(
      batch, f.fx.belief, 0.0, 4, {1.0e9, 0.0, 0.0},
      f.state.size_scratch);
  ASSERT_TRUE(balanced.has_value());
  ASSERT_TRUE(skewed.has_value());
  EXPECT_LT(skewed->small_upper_mb, balanced->small_upper_mb);
}

TEST(BandwidthSplitTest, RoundingResidueBacklogKeepsBoundsInRange) {
  // The per-class backlog that aborted op-bandwidth-split on the uniform
  // bucket (seed 1, 100 batches): rounding residue, one class below zero.
  SchedulerFixture f;
  f.fx.belief.commit_ic(999, 1.0e9);  // everything is burst-eligible
  std::vector<Document> batch;
  for (int i = 1; i <= 24; ++i) {
    batch.push_back(make_doc(static_cast<std::uint64_t>(i), 10.0 * i));
  }
  const auto bounds = compute_size_interval_bounds(
      batch, f.fx.belief, 0.0, 4,
      {2.6077032089233398e-08, -7.4505805969238281e-09, 0.0},
      f.state.size_scratch);
  ASSERT_TRUE(bounds.has_value());
  EXPECT_GE(bounds->small_upper_mb, 10.0);
  EXPECT_GE(bounds->medium_upper_mb, bounds->small_upper_mb);
  EXPECT_LE(bounds->medium_upper_mb, 240.0);
}

TEST(BandwidthSplitTest, SchedulerAssignsUploadClasses) {
  SchedulerFixture f;
  f.params.variability_threshold_mb = 1e9;
  f.fx.belief.commit_ic(999, 40000.0);
  std::vector<Document> batch;
  for (int i = 1; i <= 9; ++i) {
    batch.push_back(make_doc(static_cast<std::uint64_t>(i), 30.0 * i));
  }
  const auto decisions = f.schedule(SchedulerKind::kBandwidthSplit, batch);
  bool saw_small = false;
  bool saw_large = false;
  for (const auto& d : decisions) {
    if (d.placement != Placement::kExternal) continue;
    if (d.upload_class == 0) saw_small = true;
    if (d.upload_class == 2) saw_large = true;
  }
  EXPECT_TRUE(saw_small);
  EXPECT_TRUE(saw_large);
}

/// Sort-based reference for the bound selection — the implementation the
/// nth_element version replaced. Pins that selection produces identical
/// bounds (they are order statistics, so any divergence is a bug).
SizeIntervalBounds reference_bounds(std::vector<double> sorted_sizes,
                                    const double leftover[3]) {
  std::sort(sorted_sizes.begin(), sorted_sizes.end());
  const double leftover_sum = leftover[0] + leftover[1] + leftover[2];
  const auto count = static_cast<double>(sorted_sizes.size());
  const auto small_count =
      static_cast<std::size_t>(std::floor(count * leftover[0] / leftover_sum));
  const auto medium_count =
      static_cast<std::size_t>(std::floor(count * leftover[1] / leftover_sum));
  SizeIntervalBounds bounds;
  bounds.small_upper_mb = small_count > 0 ? sorted_sizes[small_count - 1]
                                          : sorted_sizes.front();
  const std::size_t medium_last = std::min(
      sorted_sizes.size() - 1,
      small_count + std::max<std::size_t>(medium_count, 1) - 1);
  bounds.medium_upper_mb =
      std::max(sorted_sizes[medium_last], bounds.small_upper_mb);
  return bounds;
}

TEST(BandwidthSplitTest, SelectionBoundsMatchSortReference) {
  SchedulerFixture f;
  f.fx.belief.commit_ic(999, 1.0e9);  // everything is burst-eligible
  RngStream rng(20260806);
  std::vector<double> scratch;
  for (int trial = 0; trial < 200; ++trial) {
    const int batch_size = 1 + static_cast<int>(rng.next() % 40);
    std::vector<Document> batch;
    std::vector<double> sizes;
    for (int i = 0; i < batch_size; ++i) {
      // Duplicates on purpose: coarse quantization exercises tie handling.
      const double size = 5.0 * (1.0 + static_cast<double>(rng.next() % 60));
      batch.push_back(make_doc(static_cast<std::uint64_t>(i + 1), size));
      sizes.push_back(size);
    }
    std::vector<double> backlog = {rng.uniform(0.0, 1.0e9),
                                   rng.uniform(0.0, 1.0e9),
                                   rng.uniform(0.0, 1.0e9)};
    if (trial % 5 == 0) backlog = {0.0, 0.0, 0.0};
    const auto bounds = compute_size_interval_bounds(batch, f.fx.belief, 0.0,
                                                     4, backlog, scratch);
    ASSERT_TRUE(bounds.has_value());

    double leftover[3];
    const double total = backlog[0] + backlog[1] + backlog[2];
    if (total <= 0.0) {
      leftover[0] = leftover[1] = leftover[2] = 1.0;
    } else {
      for (int q = 0; q < 3; ++q) leftover[q] = 1.0 - backlog[static_cast<std::size_t>(q)] / total;
    }
    const SizeIntervalBounds expected = reference_bounds(sizes, leftover);
    EXPECT_EQ(bounds->small_upper_mb, expected.small_upper_mb) << "trial " << trial;
    EXPECT_EQ(bounds->medium_upper_mb, expected.medium_upper_mb) << "trial " << trial;
  }
}

// ---- Incremental slack property test --------------------------------------

TEST(BeliefStateTest, IncrementalSlackMatchesBruteforceUnderChurn) {
  BeliefFixture fx;
  RngStream rng(777);
  std::vector<std::uint64_t> live_ic;
  std::vector<std::uint64_t> live_ec;
  std::uint64_t next_seq = 1;
  double now = 0.0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.uniform(0.0, 5.0);
    const std::uint64_t op = rng.next() % 10;
    if (op < 3) {  // commit IC
      const std::uint64_t seq = next_seq++;
      fx.belief.commit_ic(seq, rng.uniform(1.0, 500.0));
      live_ic.push_back(seq);
    } else if (op < 6) {  // commit EC
      const std::uint64_t seq = next_seq++;
      const Document doc = make_doc(seq, rng.uniform(1.0, 400.0));
      commit_ec(fx.belief, seq, doc, ft_ec(fx.belief, doc, now));
      live_ec.push_back(seq);
    } else if (op < 7 && !live_ic.empty()) {  // complete IC
      const std::size_t i = rng.next() % live_ic.size();
      fx.belief.on_ic_complete(live_ic[i]);
      live_ic.erase(live_ic.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 8 && !live_ec.empty()) {  // complete EC
      const std::size_t i = rng.next() % live_ec.size();
      fx.belief.on_ec_complete(live_ec[i]);
      live_ec.erase(live_ec.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 9 && !live_ic.empty()) {  // fault retraction, IC side
      const std::size_t i = rng.next() % live_ic.size();
      fx.belief.retract_ic(live_ic[i]);
      live_ic.erase(live_ic.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (!live_ec.empty()) {  // fault retraction, EC side
      const std::size_t i = rng.next() % live_ec.size();
      fx.belief.retract_ec(live_ec[i], rng.uniform(0.0, 1.0e8));
      live_ec.erase(live_ec.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Exact equality, not near-equality: both paths take max over the same
    // doubles, which is order-insensitive, so any difference is a tracking
    // bug in the incremental structure.
    ASSERT_EQ(fx.belief.slack(now), fx.belief.slack_bruteforce(now))
        << "diverged at step " << step;
  }
  // Drain everything: the incremental structure must agree on empty too.
  for (const auto seq : live_ic) fx.belief.on_ic_complete(seq);
  for (const auto seq : live_ec) fx.belief.on_ec_complete(seq);
  EXPECT_EQ(fx.belief.slack(now), fx.belief.slack_bruteforce(now));
  EXPECT_EQ(fx.belief.slack(now), now);
}

// ---- TransferQueueSet ---------------------------------------------------

/// The link's owner: hands every finished transfer back to the queue set
/// (as the controller does) and records it.
struct QueueOwner : cbs::testing::RecordingOwner {
  using RecordingOwner::RecordingOwner;
  TransferQueueSet* queues = nullptr;
  void on_transfer_done(std::size_t link, std::uint32_t kind, std::uint64_t tag,
                        const cbs::net::TransferRecord& rec) override {
    queues->on_transfer_done(tag);
    RecordingOwner::on_transfer_done(link, kind, tag, rec);
  }
  [[nodiscard]] std::vector<std::uint64_t> tags() const {
    std::vector<std::uint64_t> out;
    for (const Transfer& t : transfers) out.push_back(t.tag);
    return out;
  }
};

struct QueueFixture {
  Simulation sim;
  cbs::net::LinkConfig link_cfg = [] {
    cbs::net::LinkConfig cfg;
    cfg.base_rate = 1.0e6;
    cfg.per_connection_cap = 1.0e6;
    cfg.noise_sigma = 0.0;
    cfg.setup_latency = 0.0;
    return cfg;
  }();
  QueueOwner owner{sim};
  cbs::net::Link link{sim, owner, 0, link_cfg, RngStream(1)};
  cbs::net::ThreadTuner tuner{{.slots_per_day = 1, .initial_threads = 1}};

  std::unique_ptr<TransferQueueSet> set;

  /// The fixture's queue set on its link, whose completions reach `owner`.
  TransferQueueSet& queues(int num_classes) {
    set = std::make_unique<TransferQueueSet>(sim, link, tuner,
                                             /*transfer_kind=*/0, num_classes);
    owner.queues = set.get();
    return *set;
  }
};

TEST(TransferQueueSetTest, SingleClassIsFifo) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(1);
  for (std::uint64_t tag = 1; tag <= 3; ++tag) queues.enqueue(tag, 1.0e6, 0);
  f.sim.run();
  EXPECT_EQ(f.owner.tags(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(queues.idle());
}

TEST(TransferQueueSetTest, SmallJobRidesHigherClassSlot) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(3);
  // Two small (class 0) jobs and nothing in classes 1/2: the second small
  // job must ride a higher slot and run concurrently.
  queues.enqueue(1, 2.0e6, 0);
  queues.enqueue(2, 2.0e6, 0);
  f.sim.run();
  // Concurrent at 0.5 MB/s each -> both complete at t=4; serial would be
  // 2 then 4.
  const std::vector<cbs::net::TransferRecord> recs = f.owner.transfer_records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_DOUBLE_EQ(recs[0].completed, 4.0);
  EXPECT_DOUBLE_EQ(recs[1].completed, 4.0);
}

TEST(TransferQueueSetTest, LargeJobNeverRidesSmallSlot) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(2);
  // Three large-class jobs: only the class-1 slot may carry them, so they
  // serialize even though the class-0 slot idles.
  for (std::uint64_t tag = 1; tag <= 3; ++tag) queues.enqueue(tag, 1.0e6, 1);
  EXPECT_EQ(queues.active_items(), 1u);
  f.sim.run();
  const std::vector<cbs::net::TransferRecord> recs = f.owner.transfer_records();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_DOUBLE_EQ(recs.back().completed, 3.0);  // serial at 1 MB/s
}

TEST(TransferQueueSetTest, CancelOnlyWorksWhileQueued) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(1);
  queues.enqueue(1, 1.0e6, 0);  // starts immediately
  queues.enqueue(2, 1.0e6, 0);  // queued
  EXPECT_FALSE(queues.try_cancel(1));  // already started
  EXPECT_TRUE(queues.try_cancel(2));
  EXPECT_FALSE(queues.try_cancel(2));  // gone
  f.sim.run();
  EXPECT_EQ(f.owner.transfers.size(), 1u);
}

TEST(TransferQueueSetTest, BacklogAccountsQueuedAndActive) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(3);
  queues.enqueue(1, 5.0e6, 0);
  queues.enqueue(2, 3.0e6, 2);
  queues.enqueue(3, 2.0e6, 2);
  const auto backlog = queues.backlog_bytes_per_class();
  EXPECT_DOUBLE_EQ(backlog[0], 5.0e6);
  EXPECT_DOUBLE_EQ(backlog[2], 5.0e6);
  EXPECT_DOUBLE_EQ(queues.total_backlog_bytes(), 10.0e6);
  f.sim.run();
  EXPECT_DOUBLE_EQ(queues.total_backlog_bytes(), 0.0);
}

TEST(TransferQueueSetTest, DrainedClassBacklogIsExactlyZero) {
  // Ride-up puts several class-0 transfers in flight at once; once they all
  // land, the class backlog must be exactly empty, not a rounding residue.
  QueueFixture f;
  TransferQueueSet& queues = f.queues(3);
  // Summed then subtracted smallest-first (the completion order), these
  // sizes leave -5.8e-11 bytes in a running total.
  queues.enqueue(1, 1.0e6 / 3.0, 0);
  queues.enqueue(2, 1.0e6 / 7.0, 0);
  queues.enqueue(3, 1.0e6 / 13.0, 0);
  f.sim.run();
  for (const double bytes : queues.backlog_bytes_per_class()) {
    EXPECT_EQ(bytes, 0.0);
  }
}

TEST(TransferQueueSetTest, RideUpsAddToTheBacklogInTagOrder) {
  // Class 0 work rides both higher slots. Once tag 2 lands, class 1's slot
  // takes tag 4 while class 2's still carries tag 3, so the slots hold
  // tags 1, 4, 3. The backlog must add them in tag order.
  QueueFixture f;
  TransferQueueSet& queues = f.queues(3);
  const double b1 = 64.0e6 / 7.0;
  const double b3 = 64.0e6 / 11.0;
  const double b4 = 64.0e6 / 31.0;
  const double b5 = 64.0e6 / 3.0;
  queues.enqueue(1, b1, 0);
  queues.enqueue(2, 1.0e3, 0);  // lands within milliseconds
  queues.enqueue(3, b3, 0);
  queues.enqueue(4, b4, 0);
  queues.enqueue(5, b5, 0);  // still waiting at the check
  f.sim.run_until(1.0);
  ASSERT_EQ(f.owner.tags(), (std::vector<std::uint64_t>{2}));
  ASSERT_EQ(queues.queued_tags(), (std::vector<std::uint64_t>{5}));
  const double tag_order = ((b5 + b1) + b3) + b4;
  const double slot_order = ((b5 + b1) + b4) + b3;
  ASSERT_NE(tag_order, slot_order);  // the sizes tell the orders apart
  EXPECT_EQ(queues.backlog_bytes_per_class()[0], tag_order);
}

TEST(TransferQueueSetTest, QueuedTagsListsWaitingOnly) {
  QueueFixture f;
  TransferQueueSet& queues = f.queues(1);
  queues.enqueue(1, 1.0e6, 0);
  queues.enqueue(2, 1.0e6, 0);
  queues.enqueue(3, 1.0e6, 0);
  const auto tags = queues.queued_tags();
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{2, 3}));
}

TEST(TransferQueueSetTest, CancelInTheMiddleMatchesAScanningQueue) {
  // The reference is the queue as a scan would keep it: each class's
  // waiting items in order, a cancelled one erased where it stands.
  using Waiting = std::vector<std::pair<std::uint64_t, double>>;
  QueueFixture f;
  TransferQueueSet& queues = f.queues(3);
  std::vector<Waiting> reference(3);
  // Tags 1 and 2 take class 2's and class 0's slots; class 1's slot stays
  // free, and ride-up never carries class 2 work on it.
  queues.enqueue(1, 3.0e6, 2);
  queues.enqueue(2, 1.0e6, 0);
  queues.enqueue(3, 2.0e6, 1);  // takes class 1's slot
  for (std::uint64_t tag = 4; tag <= 12; ++tag) {
    const int klass = tag % 2 == 0 ? 0 : 2;
    const double bytes = 1.0e6 / static_cast<double>(tag);
    queues.enqueue(tag, bytes, klass);
    reference[static_cast<std::size_t>(klass)].emplace_back(tag, bytes);
  }
  ASSERT_EQ(queues.active_items(), 3u);
  const auto cancel = [&](std::uint64_t tag) {
    for (Waiting& waiting : reference) {
      for (auto it = waiting.begin(); it != waiting.end(); ++it) {
        if (it->first != tag) continue;
        waiting.erase(it);
        return queues.try_cancel(tag);
      }
    }
    return !queues.try_cancel(tag);  // not waiting: the cancel must fail
  };
  // Middle items of both classes, then a class's front, which drops the
  // tombstone behind it; a started item cannot be cancelled.
  for (const std::uint64_t tag : {8u, 7u, 6u, 4u, 1u, 3u}) {
    EXPECT_TRUE(cancel(tag)) << tag;
  }
  EXPECT_EQ(queues.tombstones(), 1u);  // 7, behind 5 in class 2

  std::vector<std::uint64_t> expected_tags;
  for (const Waiting& waiting : reference) {
    for (const auto& [tag, bytes] : waiting) expected_tags.push_back(tag);
  }
  EXPECT_EQ(queues.queued_tags(), expected_tags);
  const std::pair<std::uint64_t, double> active[] = {
      {1, 3.0e6}, {2, 1.0e6}, {3, 2.0e6}};
  const int active_class[] = {2, 0, 1};
  std::vector<double> expected_backlog(3, 0.0);
  for (std::size_t k = 0; k < 3; ++k) {
    double queued = 0.0;
    for (const auto& [tag, bytes] : reference[k]) queued += bytes;
    expected_backlog[k] = queued;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    expected_backlog[static_cast<std::size_t>(active_class[i])] +=
        active[i].second;
  }
  EXPECT_EQ(queues.backlog_bytes_per_class(), expected_backlog);

  // The link numbers transfers as they are submitted: within each class
  // the waiting items start in the reference's order.
  f.sim.run();
  EXPECT_TRUE(queues.idle());
  EXPECT_EQ(queues.tombstones(), 0u);
  std::vector<QueueOwner::Transfer> started = f.owner.transfers;
  std::sort(started.begin(), started.end(),
            [](const auto& a, const auto& b) { return a.rec.id < b.rec.id; });
  for (const Waiting& waiting : reference) {
    std::vector<std::uint64_t> want;
    for (const auto& [tag, bytes] : waiting) want.push_back(tag);
    std::vector<std::uint64_t> got;
    for (const auto& t : started) {
      if (std::find(want.begin(), want.end(), t.tag) != want.end()) {
        got.push_back(t.tag);
      }
    }
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(started.size(), 3 + expected_tags.size());
}

TEST(TransferQueueSetTest, FirstCancelAfterPumpingFindsEveryWaitingItem) {
  // The tag index is built at the first cancel, after the pump has taken
  // items off the front: it must still point at each waiting item.
  QueueFixture f;
  TransferQueueSet& queues = f.queues(1);
  for (std::uint64_t tag = 1; tag <= 8; ++tag) queues.enqueue(tag, 1.0e6, 0);
  f.sim.run_until(2.5);  // 1 and 2 done, 3 in flight
  EXPECT_EQ(queues.queued_tags(),
            (std::vector<std::uint64_t>{4, 5, 6, 7, 8}));
  EXPECT_FALSE(queues.try_cancel(3));
  EXPECT_TRUE(queues.try_cancel(6));
  queues.enqueue(9, 1.0e6, 0);
  EXPECT_TRUE(queues.try_cancel(4));
  EXPECT_TRUE(queues.try_cancel(9));
  EXPECT_FALSE(queues.try_cancel(6));
  EXPECT_EQ(queues.queued_tags(), (std::vector<std::uint64_t>{5, 7, 8}));
  f.sim.run_until(3.5);  // 3 done, 5 in flight
  EXPECT_FALSE(queues.try_cancel(5));
  EXPECT_EQ(queues.queued_tags(), (std::vector<std::uint64_t>{7, 8}));
  f.sim.run();
  EXPECT_EQ(f.owner.tags(), (std::vector<std::uint64_t>{1, 2, 3, 5, 7, 8}));
  EXPECT_TRUE(queues.idle());
}

TEST(BandwidthSplitTest, ClassBoundariesAreInclusive) {
  const SizeIntervalBounds bounds{40.0, 120.0};
  EXPECT_EQ(bounds.class_of(40.0), 0);
  EXPECT_EQ(bounds.class_of(40.0001), 1);
  EXPECT_EQ(bounds.class_of(120.0), 1);
  EXPECT_EQ(bounds.class_of(120.0001), 2);
}

TEST(RandomSchedulerTest, BurstsAtConfiguredProbability) {
  SchedulerFixture f;
  std::vector<cbs::workload::Document> batch;
  for (int i = 1; i <= 400; ++i) {
    batch.push_back(make_doc(static_cast<std::uint64_t>(i), 20.0));
  }
  const auto decisions = f.schedule(SchedulerKind::kRandom, batch);
  std::size_t bursted = 0;
  for (const auto& d : decisions) {
    if (d.placement == Placement::kExternal) ++bursted;
  }
  EXPECT_NEAR(static_cast<double>(bursted) / 400.0,
              kRandomBurstProbability, 0.07);
}

TEST(RandomSchedulerTest, DeterministicPerSeed) {
  // Two fresh states draw the same placements, both IC and EC.
  auto run = [] {
    SchedulerFixture f;
    std::vector<cbs::workload::Document> batch;
    for (int i = 1; i <= 50; ++i) {
      batch.push_back(make_doc(static_cast<std::uint64_t>(i), 20.0));
    }
    std::vector<Placement> placements;
    for (const auto& d : f.schedule(SchedulerKind::kRandom, batch)) {
      placements.push_back(d.placement);
    }
    return placements;
  };
  const std::vector<Placement> placements = run();
  EXPECT_EQ(placements, run());
  EXPECT_NE(std::count(placements.begin(), placements.end(),
                       Placement::kExternal),
            0);
  EXPECT_NE(std::count(placements.begin(), placements.end(),
                       Placement::kInternal),
            0);
}

// ---- config ---------------------------------------------------------------

TEST(ConfigTest, SchedulerNames) {
  EXPECT_EQ(to_string(SchedulerKind::kIcOnly), "ic-only");
  EXPECT_EQ(to_string(SchedulerKind::kGreedy), "greedy");
  EXPECT_EQ(to_string(SchedulerKind::kOrderPreserving), "order-preserving");
  EXPECT_EQ(to_string(SchedulerKind::kBandwidthSplit), "op-bandwidth-split");
  EXPECT_EQ(to_string(SchedulerKind::kRandom), "random");
}

TEST(ConfigTest, HighVariationRaisesSigma) {
  const auto normal = default_controller_config().ec_sites[0].uplink;
  auto high = normal;
  set_link_noise(high, true);
  EXPECT_GT(high.noise_sigma, normal.noise_sigma);
  EXPECT_DOUBLE_EQ(normal.base_rate, high.base_rate);
}

/// Estimator at 1 s per MB that counts its estimates into `*calls`.
class CountingEstimator final : public cbs::models::ProcessingTimeEstimator {
 public:
  explicit CountingEstimator(std::size_t* calls) : calls_(calls) {}
  [[nodiscard]] double estimate_seconds(const Document& doc) const override {
    ++*calls_;
    return doc.features.size_mb;
  }
  [[nodiscard]] std::unique_ptr<cbs::models::ProcessingTimeEstimator> clone()
      const override {
    return std::make_unique<CountingEstimator>(*this);
  }

 private:
  std::size_t* calls_;
};

// A scheduler asks the service model once per placed document and prices,
// decides and commits with that answer. Bandwidth-split asks twice: once
// in its bounds pass over the batch, once in its placement pass.
TEST(ScheduleBatchTest, AsksTheServiceModelOncePerDocument) {
  for (const auto& [kind, asks] :
       {std::pair{SchedulerKind::kIcOnly, 1u},
        std::pair{SchedulerKind::kOrderPreserving, 1u},
        std::pair{SchedulerKind::kGreedy, 1u},
        std::pair{SchedulerKind::kRandom, 1u},
        std::pair{SchedulerKind::kBandwidthSplit, 2u}}) {
    std::size_t calls = 0;
    BeliefState belief(std::make_unique<CountingEstimator>(&calls), 4);
    belief.add_ec_site(ec_site(2), pipe());
    // A 300 s cushion: the small documents burst, the large ones stay.
    belief.commit_ic(999, 1200.0);
    cbs::workload::GroundTruthModel truth({.noise_sigma = 0.0}, RngStream(1));
    SchedulerParams params;
    params.variability_threshold_mb = 1e9;  // no chunking
    std::uint64_t next_seq = 1;
    std::uint64_t next_doc_id = 1000;
    ScheduleContext ctx{
        .now = 0.0,
        .belief = belief,
        .params = params,
        .truth = truth,
        .next_seq = &next_seq,
        .next_doc_id = &next_doc_id,
        .ic_machines = 4,
        .upload_class_backlog_bytes = {0.0, 0.0, 0.0},
        .download_backlog_bytes = {0.0},
    };
    SchedulerState state;
    const auto& decisions = schedule_batch(
        kind,
        {make_doc(1, 10.0), make_doc(2, 20.0), make_doc(3, 150.0),
         make_doc(4, 300.0), make_doc(5, 15.0)},
        ctx, state);
    ASSERT_EQ(decisions.size(), 5u) << to_string(kind);
    EXPECT_EQ(calls, asks * decisions.size()) << to_string(kind);
  }
}

TEST(ScheduleBatchTest, LookaheadPlacesNothingItself) {
  SchedulerFixture f;
  EXPECT_THROW((void)f.schedule(SchedulerKind::kLookahead, {make_doc(1, 10.0)}),
               std::invalid_argument);
  EXPECT_EQ(f.next_seq, 1u);
}

}  // namespace
