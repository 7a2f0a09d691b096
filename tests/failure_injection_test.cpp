// Failure injection: connection drops on the best-effort Internet path and
// the system's behaviour under them — conservation still holds, every run
// still terminates, and the SLA metrics degrade gracefully rather than
// collapsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "closure_events.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "net/link.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cbs;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

net::LinkConfig flaky_link(double failure_probability) {
  net::LinkConfig cfg;
  cfg.base_rate = 1.0e6;
  cfg.per_connection_cap = 1.0e6;
  cfg.noise_sigma = 0.0;
  cfg.setup_latency = 0.5;
  cfg.failure_probability = failure_probability;
  cfg.max_retries = 3;
  return cfg;
}

TEST(LinkFailureTest, ZeroProbabilityInjectsNothing) {
  Simulation sim;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.0), RngStream(1));
  for (int i = 0; i < 20; ++i) link.submit(1.0e6, 1, 0, 0);
  sim.run();
  EXPECT_EQ(link.injected_failures(), 0u);
  for (const auto& done : owner.transfers) EXPECT_EQ(done.rec.retries, 0);
}

TEST(LinkFailureTest, DropsHappenAndTransfersStillComplete) {
  Simulation sim;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.6), RngStream(2));
  for (int i = 0; i < 50; ++i) link.submit(2.0e6, 1, 0, 0);
  sim.run();
  EXPECT_EQ(owner.transfers.size(), 50u);
  EXPECT_GT(link.injected_failures(), 5u);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(LinkFailureTest, DeliveredBytesCountPayloadOnce) {
  // Conservation is on *useful* bytes: a transfer that restarted still
  // delivers its payload exactly once.
  Simulation sim;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.7), RngStream(3));
  double submitted = 0.0;
  for (int i = 0; i < 30; ++i) {
    const double bytes = 1.0e6 + 1.0e5 * i;
    submitted += bytes;
    link.submit(bytes, 1, 0, 0);
  }
  sim.run();
  EXPECT_NEAR(link.total_bytes_delivered(), submitted, 1.0);
}

TEST(LinkFailureTest, RetriesAreRecordedAndBounded) {
  Simulation sim;
  auto cfg = flaky_link(0.9);
  cfg.max_retries = 2;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, cfg, RngStream(4));
  for (int i = 0; i < 40; ++i) link.submit(1.0e6, 1, 0, 0);
  sim.run();
  bool saw_retry = false;
  for (const auto& rec : owner.transfer_records()) {
    EXPECT_LE(rec.retries, 2);
    if (rec.retries > 0) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
}

TEST(LinkFailureTest, FailuresMakeTransfersSlower) {
  const auto run_mean = [](double prob) {
    Simulation sim;
    cbs::testing::ClosureEvents events(sim);
    RecordingOwner owner(sim);
    net::Link link(sim, owner, 0, flaky_link(prob), RngStream(5));
    for (int i = 0; i < 40; ++i) {
      events.at(100.0 * i, [&link] { link.submit(4.0e6, 1, 0, 0); });
    }
    sim.run();
    double total = 0.0;
    for (const auto& done : owner.transfers) {
      total += done.rec.completed - done.rec.requested;
    }
    return total / static_cast<double>(owner.transfers.size());
  };
  EXPECT_GT(run_mean(0.8), 1.3 * run_mean(0.0));
}

TEST(LinkFailureTest, MultipleDropsPerTransferAreInjected) {
  // Regression pin: the failure process re-arms after every drop (in
  // activate(), not only at submit time), so one transfer can suffer up to
  // max_retries drops — not just one.
  Simulation sim;
  auto cfg = flaky_link(0.9);
  cfg.max_retries = 5;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, cfg, RngStream(6));
  for (int i = 0; i < 60; ++i) link.submit(1.0e6, 1, 0, 0);
  sim.run();
  int max_retries_seen = 0;
  for (const auto& rec : owner.transfer_records()) {
    max_retries_seen = std::max(max_retries_seen, rec.retries);
  }
  EXPECT_GE(max_retries_seen, 3);
  EXPECT_GT(link.injected_failures(), 60u);  // more drops than transfers
}

TEST(LinkOutageTest, OutageAbortsAndResumesTransfers) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.0), RngStream(7));
  // 8 MB at 1 MB/s: without the outage this finishes at ~8.5 s.
  link.submit(8.0e6, 8, 0, 0);
  events.at(4.0, [&] { link.set_outage(true); });
  events.at(50.0, [&] { link.set_outage(false); });
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  const net::TransferRecord& done = owner.transfers[0].rec;
  EXPECT_EQ(link.outage_aborts(), 1u);
  // ~3.5 s of payload moved before the cut, all lost.
  EXPECT_GT(link.wasted_bytes(), 2.0e6);
  // Restarts from byte zero after the outage (+ setup + backoff), so the
  // completion lands well past 58 s; the payload still arrives exactly once.
  EXPECT_GT(done.completed, 58.0);
  EXPECT_NEAR(link.total_bytes_delivered(), 8.0e6, 1.0);
}

TEST(LinkOutageTest, SubmitDuringOutageWaitsForRecovery) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.0), RngStream(8));
  link.set_outage(true);
  link.submit(1.0e6, 1, 0, 0);
  events.at(30.0, [&] { link.set_outage(false); });
  sim.run();
  // Activation parked at setup-latency end, released at outage end: the
  // transfer only moves after t = 30.
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_GT(owner.transfers[0].rec.completed, 30.0);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(LinkOutageTest, RepeatedAbortsBackOffExponentially) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  auto cfg = flaky_link(0.0);
  cfg.outage_backoff_base = 2.0;
  cfg.outage_backoff_multiplier = 2.0;
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, cfg, RngStream(9));
  link.submit(60.0e6, 8, 0, 0);
  // Two outages, each severing the same transfer: reconnect delays are
  // setup + 2 s, then setup + 4 s.
  events.at(5.0, [&] { link.set_outage(true); });
  events.at(6.0, [&] { link.set_outage(false); });
  events.at(20.0, [&] { link.set_outage(true); });
  events.at(21.0, [&] { link.set_outage(false); });
  sim.run();
  EXPECT_EQ(link.outage_aborts(), 2u);
  // 60 s of payload restarted at t ≈ 21 + 0.5 + 4: finishes after ~85 s.
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_GT(owner.transfers[0].rec.completed, 85.0);
  EXPECT_NEAR(link.total_bytes_delivered(), 60.0e6, 1.0);
}

TEST(LinkCancelTest, CancelAbortsInFlightTransfer) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.0), RngStream(10));
  const auto id = link.submit(10.0e6, 8, 0, 0);
  bool cancelled = false;
  events.at(3.0, [&] { cancelled = link.cancel(id); });
  sim.run();
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(owner.transfers.empty());
  EXPECT_EQ(link.active_transfers(), 0u);
  EXPECT_GT(link.wasted_bytes(), 1.0e6);  // ~2.5 s of progress discarded
  EXPECT_EQ(link.total_bytes_delivered(), 0.0);
  EXPECT_FALSE(link.cancel(id));  // unknown id now
}

TEST(LinkCancelTest, CancelFreesCapacityForSurvivors) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, flaky_link(0.0), RngStream(11));
  const auto victim = link.submit(50.0e6, 8, 0, 0);
  link.submit(4.0e6, 8, 0, 1);
  events.at(1.0, [&] { link.cancel(victim); });
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_EQ(owner.transfers[0].tag, 1u);
  const net::TransferRecord& survivor = owner.transfers[0].rec;
  // With the victim gone the survivor gets the whole 1 MB/s pipe: ~0.5 s
  // sharing + full rate after, far sooner than the ~8.5 s a fair split of
  // the whole run would give.
  EXPECT_GT(survivor.completed, 0.0);
  EXPECT_LT(survivor.completed, 6.0);
}

TEST(ScenarioFailureTest, FullRunSurvivesFlakyPipe) {
  harness::Scenario s = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased);
  s.num_batches = 3;
  auto cfg = core::default_controller_config(false);
  cfg.ec_sites[0].uplink.failure_probability = 0.3;
  cfg.ec_sites[0].downlink.failure_probability = 0.3;
  s.config_override = cfg;
  const auto r = harness::run_scenario(s);  // throws on invariant violation
  EXPECT_GT(r.outcomes.size(), 10u);
  EXPECT_GT(r.report.speedup, 1.0);
}

TEST(ScenarioFailureTest, FlakyPipeCostsMakespanNotCorrectness) {
  auto base = harness::make_scenario(core::SchedulerKind::kGreedy,
                                     workload::SizeBucket::kLargeBiased);
  base.num_batches = 3;

  auto clean_cfg = core::default_controller_config(false);
  base.config_override = clean_cfg;
  const auto clean = harness::run_scenario(base);

  auto flaky_cfg = clean_cfg;
  flaky_cfg.ec_sites[0].uplink.failure_probability = 0.5;
  flaky_cfg.ec_sites[0].downlink.failure_probability = 0.5;
  base.config_override = flaky_cfg;
  const auto flaky = harness::run_scenario(base);

  EXPECT_EQ(clean.outcomes.size(), flaky.outcomes.size());
  // Same work completed; the flaky pipe can only delay EC round trips.
  EXPECT_GE(flaky.report.makespan_seconds,
            0.95 * clean.report.makespan_seconds);
}

}  // namespace
