#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "closure_events.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/bandwidth_profile.hpp"
#include "net/ewma.hpp"
#include "net/link.hpp"
#include "net/noise.hpp"
#include "net/thread_tuner.hpp"
#include "net/time_of_day.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"
#include "stats/summary.hpp"

namespace {

using namespace cbs::net;
using cbs::sim::kDay;
using cbs::sim::kHour;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

// ---- DiurnalProfile ---------------------------------------------------

TEST(DiurnalProfileTest, FlatIsAlwaysOne) {
  const auto p = DiurnalProfile::flat();
  for (double t : {0.0, 1234.5, kDay, 3.7 * kDay}) {
    EXPECT_DOUBLE_EQ(p.multiplier_at(t), 1.0);
  }
}

TEST(DiurnalProfileTest, HitsAnchorsAtSlotStarts) {
  const DiurnalProfile p({1.0, 2.0, 4.0, 8.0});
  EXPECT_DOUBLE_EQ(p.multiplier_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.multiplier_at(kDay / 4.0), 2.0);
  EXPECT_DOUBLE_EQ(p.multiplier_at(kDay / 2.0), 4.0);
}

TEST(DiurnalProfileTest, InterpolatesLinearly) {
  const DiurnalProfile p({1.0, 3.0});
  EXPECT_DOUBLE_EQ(p.multiplier_at(kDay / 4.0), 2.0);  // halfway to anchor 2
}

TEST(DiurnalProfileTest, WrapsAcrossMidnight) {
  const DiurnalProfile p({1.0, 3.0});
  // Last segment interpolates back toward the first anchor.
  EXPECT_DOUBLE_EQ(p.multiplier_at(0.75 * kDay), 2.0);
  EXPECT_DOUBLE_EQ(p.multiplier_at(kDay), 1.0);
  EXPECT_DOUBLE_EQ(p.multiplier_at(kDay + kDay / 4.0), 2.0);
}

TEST(DiurnalProfileTest, BusinessPipeDipsDuringOfficeHours) {
  const auto p = DiurnalProfile::business_pipe();
  EXPECT_GT(p.multiplier_at(3.0 * kHour), p.multiplier_at(12.0 * kHour));
  EXPECT_GT(p.multiplier_at(22.0 * kHour), p.multiplier_at(14.0 * kHour));
}

TEST(ThrottleTest, EpisodesMultiply) {
  const std::vector<ThrottleEpisode> eps = {{10.0, 20.0, 0.5}, {15.0, 30.0, 0.4}};
  EXPECT_DOUBLE_EQ(throttle_factor(eps, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(throttle_factor(eps, 12.0), 0.5);
  EXPECT_DOUBLE_EQ(throttle_factor(eps, 17.0), 0.2);
  EXPECT_DOUBLE_EQ(throttle_factor(eps, 25.0), 0.4);
  EXPECT_DOUBLE_EQ(throttle_factor(eps, 30.0), 1.0);  // end exclusive
}

// ---- Ar1LogNoise --------------------------------------------------------

TEST(NoiseTest, ZeroSigmaIsDeterministicOne) {
  Ar1LogNoise noise(0.9, 0.0, 30.0, RngStream(1));
  for (double t : {0.0, 100.0, 5000.0}) {
    EXPECT_DOUBLE_EQ(noise.multiplier_at(t), 1.0);
  }
}

TEST(NoiseTest, MultiplierIsPositive) {
  Ar1LogNoise noise(0.9, 0.5, 30.0, RngStream(2));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GT(noise.multiplier_at(i * 30.0), 0.0);
  }
}

TEST(NoiseTest, MeanIsApproximatelyOne) {
  // The mean-one normalization: raising sigma must not change the average
  // capacity (otherwise high-variation scenarios get faster pipes).
  for (double sigma : {0.1, 0.35}) {
    Ar1LogNoise noise(0.9, sigma, 30.0, RngStream(3));
    cbs::stats::Summary s;
    for (int i = 0; i < 200000; ++i) s.add(noise.multiplier_at(i * 30.0));
    EXPECT_NEAR(s.mean(), 1.0, 0.05) << "sigma=" << sigma;
  }
}

TEST(NoiseTest, HigherSigmaMeansMoreVariance) {
  Ar1LogNoise lo(0.9, 0.08, 30.0, RngStream(4));
  Ar1LogNoise hi(0.9, 0.35, 30.0, RngStream(4));
  cbs::stats::Summary slo;
  cbs::stats::Summary shi;
  for (int i = 0; i < 20000; ++i) {
    slo.add(lo.multiplier_at(i * 30.0));
    shi.add(hi.multiplier_at(i * 30.0));
  }
  EXPECT_GT(shi.cov(), 2.0 * slo.cov());
}

TEST(NoiseTest, DeterministicForSameSeed) {
  Ar1LogNoise a(0.9, 0.3, 30.0, RngStream(7));
  Ar1LogNoise b(0.9, 0.3, 30.0, RngStream(7));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.multiplier_at(i * 30.0), b.multiplier_at(i * 30.0));
  }
}

TEST(NoiseTest, LongIdleGapIsCheapAndValid) {
  Ar1LogNoise noise(0.99, 0.3, 30.0, RngStream(8));
  (void)noise.multiplier_at(0.0);
  // A week-long gap fast-forwards via the stationary law in O(1).
  const double m = noise.multiplier_at(7.0 * kDay);
  EXPECT_GT(m, 0.0);
  EXPECT_TRUE(std::isfinite(m));
}

// ---- Ewma ----------------------------------------------------------------

TEST(EwmaTest, FirstObservationInitializes) {
  Ewma e(0.3);
  EXPECT_FALSE(e.has_value());
  e.observe(10.0);
  EXPECT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, FollowsPaperRecurrence) {
  // S_n = alpha*Y_n + (1-alpha)*S_{n-1}
  Ewma e(0.25);
  e.observe(8.0);
  e.observe(16.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.25 * 16.0 + 0.75 * 8.0);
  e.observe(4.0);
  EXPECT_DOUBLE_EQ(e.value(), 0.25 * 4.0 + 0.75 * 10.0);
}

TEST(EwmaTest, ConvergesToConstantSignal) {
  Ewma e(0.3);
  e.observe(0.0);
  for (int i = 0; i < 100; ++i) e.observe(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-6);
}

// ---- Link ------------------------------------------------------------------

LinkConfig basic_link(double rate = 1.0e6) {
  LinkConfig cfg;
  cfg.base_rate = rate;
  cfg.per_connection_cap = rate;  // one thread saturates
  cfg.noise_sigma = 0.0;
  cfg.setup_latency = 0.0;
  cfg.profile = DiurnalProfile::flat();
  return cfg;
}

TEST(LinkTest, SingleTransferTakesBytesOverRate) {
  Simulation sim;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, basic_link(1.0e6), RngStream(1));
  link.submit(5.0e6, 1, 0, 0);
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 5.0, 1e-9);
}

TEST(LinkTest, SetupLatencyDelaysStart) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  cfg.setup_latency = 2.0;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  link.submit(1.0e6, 1, 0, 0);
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  const TransferRecord& record = owner.transfers[0].rec;
  EXPECT_DOUBLE_EQ(record.started, 2.0);
  EXPECT_NEAR(record.completed, 3.0, 1e-9);
  EXPECT_NEAR(record.transfer_rate(), 1.0e6, 1.0);
}

TEST(LinkTest, PerConnectionCapLimitsSingleTransfer) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  cfg.per_connection_cap = 0.25e6;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  // 2 threads -> 0.5 MB/s even though the pipe offers 1 MB/s.
  link.submit(1.0e6, 2, 0, 0);
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 2.0, 1e-9);
}

TEST(LinkTest, ConcurrentTransfersShareCapacityFairly) {
  Simulation sim;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, basic_link(1.0e6), RngStream(1));
  for (int i = 0; i < 2; ++i) link.submit(1.0e6, 1, 0, 0);
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 2u);
  // Both share 1 MB/s -> each effectively 0.5 MB/s -> both done at t=2.
  EXPECT_NEAR(owner.transfers[0].rec.completed, 2.0, 1e-6);
  EXPECT_NEAR(owner.transfers[1].rec.completed, 2.0, 1e-6);
}

TEST(LinkTest, WaterFillingRespectsSmallDemands) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  cfg.per_connection_cap = 0.2e6;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  // Transfer A: 1 thread -> demand 0.2 MB/s. Transfer B: 8 threads -> wants
  // 1.6 but gets the remaining 0.8.
  link.submit(0.2e6, 1, 0, 0);
  link.submit(1.6e6, 8, 0, 1);
  sim.run();
  const auto& done = owner.transfers;
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].tag, 0u);
  EXPECT_NEAR(done[0].rec.completed, 1.0, 1e-6);  // 0.2 MB at 0.2 MB/s
  // B: 0.8 MB/s while A alive (1s -> 0.8 MB done), then full 1.0 MB/s for
  // the remaining 0.8 MB -> 1.8s total.
  EXPECT_NEAR(done[1].rec.completed, 1.8, 1e-6);
}

TEST(LinkTest, ConservesBytes) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  auto cfg = basic_link(0.8e6);
  cfg.noise_sigma = 0.3;
  cfg.noise_step = 10.0;
  cfg.per_connection_cap = 0.2e6;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(99));
  RngStream rng(5);
  double submitted = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double bytes = rng.uniform(0.1e6, 20.0e6);
    submitted += bytes;
    const double when = rng.uniform(0.0, 500.0);
    events.at(when, [&link, bytes] { link.submit(bytes, 2, 0, 0); });
  }
  sim.run();
  EXPECT_NEAR(link.total_bytes_delivered(), submitted, 1.0);
  EXPECT_EQ(owner.transfers.size(), 40u);
  EXPECT_EQ(link.active_transfers(), 0u);
}

TEST(LinkTest, ThrottleSlowsTransfers) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  cfg.throttles = {{0.0, 1000.0, 0.5}};
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  link.submit(1.0e6, 1, 0, 0);
  sim.run();
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 2.0, 1e-6);
}

TEST(LinkTest, CapacityFloorGuaranteesProgress) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  cfg.throttles = {{0.0, 1e9, 1e-9}};  // throttled to (almost) nothing ...
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  link.submit(1.0e6, 1, 0, 0);
  sim.run();
  // ... but the floor (kMinCapacityFraction = 0.02) holds 0.02 MB/s.
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 50.0, 1e-6);
}

TEST(LinkTest, BusyTimeTracksActivity) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, basic_link(1.0e6), RngStream(1));
  link.submit(2.0e6, 1, 0, 0);
  events.at(10.0, [&] { link.submit(1.0e6, 1, 0, 0); });
  sim.run();
  EXPECT_NEAR(link.busy_time(), 3.0, 1e-6);  // [0,2] and [10,11]
}

TEST(LinkTest, DiurnalProfileChangesRateAcrossTicks) {
  Simulation sim;
  auto cfg = basic_link(1.0e6);
  // Slow first half-day, fast second half.
  cfg.profile = DiurnalProfile({0.5, 0.5, 2.0, 2.0});
  cfg.noise_step = 60.0;
  RecordingOwner owner(sim);
  Link link(sim, owner, 0, cfg, RngStream(1));
  link.submit(3.0e6, 1, 0, 0);
  sim.run();
  // At 0.5 MB/s, 3 MB would take 6s — with piecewise re-evaluation it stays
  // ~6s because we are deep inside the slow slot.
  ASSERT_EQ(owner.transfers.size(), 1u);
  EXPECT_NEAR(owner.transfers[0].rec.completed, 6.0, 0.1);
}

// ---- BandwidthEstimator ------------------------------------------------

TEST(BandwidthEstimatorTest, PriorBeforeObservations) {
  BandwidthEstimator est({.slots_per_day = 24, .prior_rate = 5.0e5});
  EXPECT_DOUBLE_EQ(est.estimate(0.0), 5.0e5);
  EXPECT_DOUBLE_EQ(est.last_observed(), 5.0e5);
}

TEST(BandwidthEstimatorTest, SlotMapping) {
  BandwidthEstimator est({.slots_per_day = 24, .prior_rate = 1.0});
  EXPECT_EQ(est.slot_of(0.0), 0u);
  EXPECT_EQ(est.slot_of(kHour + 1.0), 1u);
  EXPECT_EQ(est.slot_of(23.5 * kHour), 23u);
  EXPECT_EQ(est.slot_of(kDay + kHour), 1u);  // wraps
}

TEST(BandwidthEstimatorTest, SlotEwmaThenGlobalFallback) {
  BandwidthEstimator est({.slots_per_day = 24, .prior_rate = 1.0});
  est.observe(0.5 * kHour, 100.0);  // slot 0
  EXPECT_DOUBLE_EQ(est.estimate(0.0), 100.0);
  // Slot 5 has no data: falls back to the global EWMA (= 100).
  EXPECT_DOUBLE_EQ(est.estimate(5.0 * kHour), 100.0);
  est.observe(5.5 * kHour, 300.0);
  EXPECT_DOUBLE_EQ(est.estimate(5.0 * kHour), 300.0);
  // Global is now 0.3*300 + 0.7*100 = 160 for untouched slots.
  EXPECT_DOUBLE_EQ(est.estimate(10.0 * kHour), 160.0);
}

TEST(BandwidthEstimatorTest, TransferSecondsSimpleCase) {
  BandwidthEstimator est({.slots_per_day = 1, .prior_rate = 1.0e6});
  EXPECT_NEAR(est.estimate_transfer_seconds(0.0, 5.0e6), 5.0, 1e-9);
}

TEST(BandwidthEstimatorTest, TransferSecondsBlendsAcrossSlots) {
  BandwidthEstimator est({.slots_per_day = 24, .prior_rate = 1.0e6});
  // Slot 0 fast (2 MB/s), slot 1 slow (0.5 MB/s); one observation each, so
  // each slot's EWMA is that observation.
  est.observe(0.0, 2.0e6);
  est.observe(kHour, 0.5e6);
  for (int s = 2; s < 24; ++s) est.observe(static_cast<double>(s) * kHour, 1.0e6);
  // Start 30 min before the slot boundary with 7.2 GB-equivalent... use a
  // transfer that takes 30 min at 2 MB/s plus 1 hour at 0.5 MB/s:
  const double bytes = 2.0e6 * 1800.0 + 0.5e6 * 3600.0;
  const double secs = est.estimate_transfer_seconds(1800.0, bytes);
  EXPECT_NEAR(secs, 1800.0 + 3600.0, 1.0);
}

TEST(BandwidthEstimatorTest, LastObservedIsRaw) {
  BandwidthEstimator est({.slots_per_day = 24, .prior_rate = 1.0});
  est.observe(0.0, 100.0);
  est.observe(1.0, 900.0);
  EXPECT_DOUBLE_EQ(est.last_observed(), 900.0);
  // The EWMA is far behind the spike: 0.3 * 900 + 0.7 * 100.
  EXPECT_DOUBLE_EQ(est.estimate(0.0), 340.0);
}

/// The slot-by-slot walk that estimate_transfer_seconds replaced, kept as
/// its reference: up to seven days of slots, one at a time, then the rest
/// at the rate where the walk stopped.
double walk_transfer_seconds(const BandwidthEstimator& est, double t,
                             double bytes) {
  const double slot_seconds = kDay / static_cast<double>(est.slots_per_day());
  double remaining = bytes;
  double elapsed = 0.0;
  double cursor = t;
  const int max_slots = static_cast<int>(est.slots_per_day()) * 7;
  for (int i = 0; i < max_slots && remaining > 0.0; ++i) {
    const double rate = std::max(est.estimate(cursor), 1.0);
    const double slot_end =
        (std::floor(cursor / slot_seconds) + 1.0) * slot_seconds;
    const double window = slot_end - cursor;
    const double movable = rate * window;
    if (movable >= remaining) {
      elapsed += remaining / rate;
      remaining = 0.0;
    } else {
      elapsed += window;
      remaining -= movable;
      cursor = slot_end;
    }
  }
  if (remaining > 0.0) {
    elapsed += remaining / std::max(est.estimate(cursor), 1.0);
  }
  return elapsed;
}

TEST(BandwidthEstimatorTest, TransferSecondsMatchTheSlotWalk) {
  RngStream rng(4242);
  std::size_t queries = 0;
  std::size_t capped = 0;
  for (std::size_t trial = 0; trial < 120; ++trial) {
    const std::size_t slots = std::array<std::size_t, 3>{48, 24, 1}[trial % 3];
    const double slot_seconds = kDay / static_cast<double>(slots);
    // Every fourth trial observes rates below 1 B/s, which the estimate
    // clamps to 1 B/s.
    const bool slow = trial % 4 == 3;
    const double lo = slow ? 0.05 : 1.0e5;
    const double hi = slow ? 3.0 : 1.0e6;
    BandwidthEstimator est({.slots_per_day = slots,
                            .prior_rate = slow ? 0.5 : 2.5e5});
    for (std::size_t q = 0; q < 60; ++q) {
      // Observing a few slots at a time leaves the others on the global
      // EWMA (or the prior), and makes the next query rebuild the table.
      if (q % 10 == 0) {
        for (std::uint64_t k = rng.uniform_int(0, 3); k > 0; --k) {
          est.observe(rng.uniform(0.0, 3.0 * kDay), rng.uniform(lo, hi));
        }
      }
      double t = rng.uniform(0.0, 30.0 * kDay);
      if (q % 3 == 0) {  // exactly on a slot boundary
        t = static_cast<double>(rng.uniform_int(0, 30 * slots)) * slot_seconds;
      }
      const double day_bytes = hi * kDay;
      double bytes = 0.0;
      switch (q % 5) {
        case 0: bytes = 0.0; break;
        case 1: bytes = rng.uniform(0.0, lo * slot_seconds); break;
        case 2: bytes = rng.uniform(0.0, day_bytes); break;
        case 3: bytes = rng.uniform(day_bytes, 6.0 * day_bytes); break;
        default:  // past the cap
          bytes = rng.uniform(8.0, 30.0) * day_bytes;
          break;
      }
      const double want = walk_transfer_seconds(est, t, bytes);
      const double got = est.estimate_transfer_seconds(t, bytes);
      ++queries;
      capped += want > 7.0 * kDay ? 1 : 0;
      EXPECT_NEAR(got, want, 1e-12 * std::max(want, got))
          << "slots " << slots << " t " << t << " bytes " << bytes;
    }
  }
  EXPECT_GT(capped, queries / 10);
}

TEST(BandwidthEstimatorTest, TransferQueryCostDoesNotGrowWithBytes) {
  BandwidthEstimator est(
      {.slots_per_day = 48, .prior_rate = 1.0e6});
  for (int s = 0; s < 48; ++s) {
    est.observe(static_cast<double>(s) * 1800.0, 0.5e6 + 2.0e4 * s);
  }
  EXPECT_EQ(est.work().table_rebuilds, 0u);  // built by the first query
  // From a few seconds of bytes to past the seven-day cap: the table is
  // built once, and each query probes it at most ⌈log₂ 48⌉ + 2 times.
  const std::array<double, 5> bytes = {1.0e3, 3.0e8, 4.0e10, 2.5e11, 1.0e13};
  for (const double b : bytes) {
    EXPECT_GT(est.estimate_transfer_seconds(1000.0, b), 0.0);
  }
  EXPECT_EQ(est.work().queries, bytes.size());
  EXPECT_EQ(est.work().table_rebuilds, 1u);
  EXPECT_LE(est.work().search_steps, bytes.size() * 8);
  est.observe(0.0, 1.0e6);
  EXPECT_GT(est.estimate_transfer_seconds(0.0, 1.0e9), 0.0);
  EXPECT_EQ(est.work().table_rebuilds, 2u);
}

TEST(BandwidthEstimatorTest, TransferSecondsFloorHoldsAcrossSeams) {
  // Order-preserving admission skips a document's upload query when the
  // upload of the backlog ahead of it already misses, which needs
  // transfer_seconds_floor(estimate(t, b1), b1) ≤ estimate(t, b2) for every
  // b2 ≥ b1. The estimate can step back by rounding where a transfer starts
  // to reach one more slot or day, so the bytes are swept a few ulps around
  // every such seam of the week, and geometrically in between.
  RngStream rng(77);
  std::size_t checked = 0;
  for (std::size_t trial = 0; trial < 30; ++trial) {
    const std::size_t slots = std::array<std::size_t, 3>{48, 24, 1}[trial % 3];
    const double slot_seconds = kDay / static_cast<double>(slots);
    // Every fourth trial spreads the slot rates over four decades.
    const double hi = trial % 4 == 3 ? 1.0e7 : 1.0e6;
    BandwidthEstimator est(
        {.slots_per_day = slots, .prior_rate = 2.5e5});
    for (std::uint64_t k = rng.uniform_int(0, 200); k > 0; --k) {
      est.observe(rng.uniform(0.0, 3.0 * kDay), rng.uniform(1.0e3, hi));
    }
    double t = rng.uniform(0.0, 30.0 * kDay);
    if (trial % 5 == 0) {
      t = static_cast<double>(rng.uniform_int(0, 30 * slots)) * slot_seconds;
    }
    std::vector<double> bytes;
    for (int i = 0; i <= 300; ++i) {
      bytes.push_back(std::pow(10.0, -1.0 + 15.0 * i / 300.0));
    }
    // The seams: where the estimate passes the end of t's slot and of each
    // whole slot after it, found by bisection on the bytes.
    const double first_window =
        (std::floor(t / slot_seconds) + 1.0) * slot_seconds - t;
    for (std::size_t k = 0; k <= 7 * slots; ++k) {
      const double target =
          first_window + static_cast<double>(k) * slot_seconds;
      double lo = 0.0;
      double hi_bytes = 1.0e16;
      while (true) {
        const double mid = 0.5 * (lo + hi_bytes);
        if (mid == lo || mid == hi_bytes) break;
        (est.estimate_transfer_seconds(t, mid) < target ? lo : hi_bytes) = mid;
      }
      double b = lo;
      for (int u = 0; u < 16; ++u) b = std::nextafter(b, 0.0);
      for (int u = 0; u < 32; ++u) {
        bytes.push_back(b);
        b = std::nextafter(b, std::numeric_limits<double>::infinity());
      }
    }
    std::sort(bytes.begin(), bytes.end());
    double floor = 0.0;  // the largest floor of any smaller byte count
    for (const double b : bytes) {
      const double seconds = est.estimate_transfer_seconds(t, b);
      ASSERT_GE(seconds, floor) << "slots " << slots << " t " << t
                                << " bytes " << b;
      floor = std::max(floor, est.transfer_seconds_floor(seconds, b));
      ++checked;
    }
  }
  EXPECT_GT(checked, 100000u);
}

// ---- The fmod-free time of day --------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The slot every caller computed with std::fmod before day_slot.
std::size_t fmod_slot(double t, std::size_t slots) {
  double day_frac = std::fmod(t, kDay) / kDay;
  if (day_frac < 0.0) day_frac += 1.0;
  auto slot = static_cast<std::size_t>(day_frac * static_cast<double>(slots));
  return slot % slots;
}

/// DiurnalProfile::multiplier_at as it was computed with std::fmod.
double fmod_multiplier(const std::vector<double>& anchors, double t) {
  const std::size_t n = anchors.size();
  if (n == 1) return anchors[0];
  double day_frac = std::fmod(t, kDay) / kDay;
  if (day_frac < 0.0) day_frac += 1.0;
  const double pos = day_frac * static_cast<double>(n);
  const auto idx = static_cast<std::size_t>(pos) % n;
  const std::size_t next = (idx + 1) % n;
  const double frac = pos - std::floor(pos);
  return anchors[idx] * (1.0 - frac) + anchors[next] * frac;
}

/// Times that stress day_remainder: random times over a long run and far
/// past it, whole days and slot boundaries with their neighbours a few ulps
/// either side, and the values that take the fmod path.
std::vector<double> time_of_day_probes() {
  std::vector<double> probes;
  const auto with_neighbours = [&probes](double t) {
    double down = t;
    double up = t;
    probes.push_back(t);
    for (int u = 0; u < 3; ++u) {
      down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      probes.push_back(down);
      probes.push_back(up);
    }
  };
  RngStream rng(2026);
  for (int i = 0; i < 20000; ++i) {
    probes.push_back(rng.uniform(0.0, 400.0 * kDay));
  }
  for (int i = 0; i < 5000; ++i) {
    probes.push_back(std::pow(10.0, rng.uniform(-300.0, 20.0)));
  }
  for (std::uint64_t n = 0; n <= 2000; ++n) {
    with_neighbours(static_cast<double>(n) * kDay);
  }
  for (int i = 0; i < 2000; ++i) {
    // Whole days up to 2^52 s, where the fast path ends.
    const double n = std::floor(std::pow(2.0, rng.uniform(0.0, 35.5)));
    with_neighbours(n * kDay);
  }
  for (const std::size_t slots : std::array<std::size_t, 3>{24, 48, 96}) {
    const double slot_seconds = kDay / static_cast<double>(slots);
    for (std::size_t k = 0; k <= 30 * slots; ++k) {
      with_neighbours(static_cast<double>(k) * slot_seconds);
    }
  }
  for (const double t : {0.0, -0.0, -1.0, -kDay, -1.0e10, 0x1p52, 0x1p60,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    with_neighbours(t);
  }
  return probes;
}

TEST(TimeOfDayTest, DayRemainderIsFmodBitForBit) {
  for (const double t : time_of_day_probes()) {
    ASSERT_EQ(bits(day_remainder(t)), bits(std::fmod(t, kDay))) << t;
  }
}

TEST(TimeOfDayTest, SlotsAndMultipliersMatchTheFmodForms) {
  const DiurnalProfile pipe = DiurnalProfile::business_pipe();
  const std::vector<double> odd = {0.9, 1.7, 0.4, 1.1, 2.3, 0.6, 1.0};
  const DiurnalProfile seven(odd);
  const std::vector<double> probes = time_of_day_probes();
  for (const std::size_t slots : std::array<std::size_t, 5>{1, 7, 24, 48, 96}) {
    const BandwidthEstimator est(
        {.slots_per_day = slots, .prior_rate = 1.0});
    for (const double t : probes) {
      if (std::isnan(t) || std::isinf(t)) continue;  // no slot to compare
      ASSERT_EQ(est.slot_of(t), fmod_slot(t, slots)) << slots << " " << t;
    }
  }
  for (const double t : probes) {
    if (std::isnan(t) || std::isinf(t)) continue;
    ASSERT_EQ(bits(pipe.multiplier_at(t)),
              bits(fmod_multiplier(pipe.anchors(), t)))
        << t;
    ASSERT_EQ(bits(seven.multiplier_at(t)), bits(fmod_multiplier(odd, t))) << t;
  }
}

// ---- ThreadTuner ---------------------------------------------------------

TEST(ThreadTunerTest, StartsAtInitial) {
  ThreadTuner tuner({.slots_per_day = 1, .max_threads = 8,
                     .initial_threads = 3});
  EXPECT_EQ(tuner.suggest(0.0), 3);
}

TEST(ThreadTunerTest, ClimbsWhenMoreThreadsPayOff) {
  ThreadTuner tuner({.slots_per_day = 1, .max_threads = 16,
                     .initial_threads = 2});
  // Throughput proportional to thread count (unsaturated pipe).
  for (int i = 0; i < 60; ++i) {
    const int t = tuner.suggest(0.0);
    tuner.report(0.0, t, 100.0 * t);
  }
  EXPECT_GE(tuner.best_for_slot(0), 6);
}

TEST(ThreadTunerTest, StopsAtSaturation) {
  ThreadTuner tuner({.slots_per_day = 1, .max_threads = 16,
                     .initial_threads = 2});
  // Pipe saturates at 4 threads.
  for (int i = 0; i < 120; ++i) {
    const int t = tuner.suggest(0.0);
    tuner.report(0.0, t, 100.0 * std::min(t, 4));
  }
  EXPECT_GE(tuner.best_for_slot(0), 3);
  EXPECT_LE(tuner.best_for_slot(0), 5);
}

TEST(ThreadTunerTest, PrefersFewerThreadsAtEqualThroughput) {
  ThreadTuner tuner({.slots_per_day = 1, .max_threads = 16,
                     .initial_threads = 8});
  // Flat throughput: fewer connections should win over time.
  for (int i = 0; i < 200; ++i) {
    const int t = tuner.suggest(0.0);
    tuner.report(0.0, t, 500.0);
  }
  EXPECT_LT(tuner.best_for_slot(0), 8);
}

TEST(ThreadTunerTest, SlotsAreIndependent) {
  ThreadTuner tuner({.slots_per_day = 24, .max_threads = 16,
                     .initial_threads = 2});
  for (int i = 0; i < 60; ++i) {
    const int t = tuner.suggest(0.0);  // slot 0 only
    tuner.report(0.0, t, 100.0 * t);
  }
  EXPECT_GE(tuner.best_for_slot(0), 4);
  EXPECT_EQ(tuner.best_for_slot(12), 2);  // untouched slot keeps the initial
}

}  // namespace
