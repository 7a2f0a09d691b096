// Link faults: whole-link outages sever and park transfers, which reconnect
// with exponential backoff once the outage lifts, and a cancelled transfer
// frees its share of the pipe. Conservation holds throughout: a payload is
// delivered exactly once or not at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "closure_events.hpp"
#include "net/link.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cbs;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

net::LinkConfig test_link() {
  net::LinkConfig cfg;
  cfg.base_rate = 1.0e6;
  cfg.per_connection_cap = 1.0e6;
  cfg.noise_sigma = 0.0;
  cfg.setup_latency = 0.5;
  return cfg;
}

TEST(LinkOutageTest, OutageAbortsAndResumesTransfers) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, test_link(), RngStream(7));
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
  net::Link link(sim, owner, 0, test_link(), RngStream(8));
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
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, test_link(), RngStream(9));
  link.submit(60.0e6, 8, 0, 0);
  // Two outages, each severing the same transfer: reconnect delays are
  // setup + 1 s, then setup + 2 s.
  events.at(5.0, [&] { link.set_outage(true); });
  events.at(6.0, [&] { link.set_outage(false); });
  events.at(20.0, [&] { link.set_outage(true); });
  events.at(21.0, [&] { link.set_outage(false); });
  sim.run();
  EXPECT_EQ(link.outage_aborts(), 2u);
  // 60 s of payload restarted at t = 21 + 0.5 + 2: finishes at 83.5 s.
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 83.5, 1e-6);
  EXPECT_NEAR(link.total_bytes_delivered(), 60.0e6, 1.0);
}

TEST(LinkOutageTest, ReconnectBackoffDoublesFromOneSecondAndCapsAtSixty) {
  // The n-th abort of one transfer reconnects setup + min(60, 2^(n-1)) s
  // after its outage lifts: 1, 2, 4, ..., 32 s, then exactly 60 s from the
  // 7th abort on.
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, test_link(), RngStream(12));
  const auto id = link.submit(1.0e12, 8, 0, 0);  // outlasts every cycle
  const std::vector<double> backoffs = {1, 2, 4, 8, 16, 32, 60, 60};
  int reconnects = 0;
  for (std::size_t n = 0; n < backoffs.size(); ++n) {
    const double down = 10.0 + 100.0 * static_cast<double>(n);
    const double delay = link.config().setup_latency + backoffs[n];
    events.at(down, [&] { link.set_outage(true); });
    events.at(down + 1.0, [&, delay] {
      link.set_outage(false);
      // Scheduled after the link's reconnect, so at `delay` they run in
      // that order: still parked just before it, connected at it.
      events.in(delay - 1e-6,
                [&] { EXPECT_TRUE(link.current_rates().empty()); });
      events.in(delay, [&] {
        EXPECT_EQ(link.current_rates().size(), 1u);
        ++reconnects;
      });
    });
  }
  events.at(1000.0, [&] { link.cancel(id); });
  sim.run();
  EXPECT_EQ(reconnects, 8);
  EXPECT_EQ(link.outage_aborts(), 8u);
  EXPECT_TRUE(owner.transfers.empty());
}

TEST(LinkCancelTest, CancelAbortsInFlightTransfer) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  net::Link link(sim, owner, 0, test_link(), RngStream(10));
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
  net::Link link(sim, owner, 0, test_link(), RngStream(11));
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

}  // namespace
