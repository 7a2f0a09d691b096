// Property tests for the data-oriented link core (DESIGN.md §14).
//
// The batched, sort-free water-filling pass keeps its hot arrays in
// (demand, id) order and streams them once per event timestamp. These
// tests pin that machinery against the *obvious* implementation: a
// brute-force reference that re-sorts every transfer and water-fills from
// scratch must reproduce the link's published rates bit-for-bit under
// randomized submit/cancel storms. A second fixture forks a link
// mid-flight — SoA pool, pending activations, per-transfer outage abort
// counts, transfers parked by an outage, single completion timer — and
// requires the fork to finish bit-identically to the original.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "closure_events.hpp"
#include "net/link.hpp"
#include "recording_owner.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace {

using cbs::net::Link;
using cbs::net::LinkConfig;
using cbs::net::TransferId;
using cbs::net::TransferRecord;
using cbs::sim::RngStream;
using cbs::sim::Simulation;

/// Brute-force max-min reference: sort by (demand, id) ascending, then
/// progressive water-fill. Mirrors Link::run_pass() arithmetic exactly —
/// same iteration order, same accumulation order — so the comparison can
/// demand bit equality, not tolerance.
std::vector<std::pair<TransferId, double>> reference_waterfill(
    const std::vector<Link::RateSample>& samples, double capacity,
    double per_connection_cap) {
  struct Entry {
    TransferId id;
    double demand;
  };
  std::vector<Entry> entries;
  entries.reserve(samples.size());
  for (const Link::RateSample& s : samples) {
    entries.push_back({s.id, s.threads * per_connection_cap});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.demand != b.demand) return a.demand < b.demand;
    return a.id < b.id;
  });
  std::vector<std::pair<TransferId, double>> rates;
  rates.reserve(entries.size());
  double remaining_capacity = capacity;
  std::size_t remaining_count = entries.size();
  for (const Entry& e : entries) {
    const double fair_share =
        remaining_capacity / static_cast<double>(remaining_count);
    const double rate = std::min(e.demand, fair_share);
    rates.emplace_back(e.id, rate);
    remaining_capacity -= rate;
    --remaining_count;
  }
  std::sort(rates.begin(), rates.end());
  return rates;
}

TEST(LinkWaterfillProperty, BatchedPassMatchesSortBasedReference) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL, 99ULL, 1234ULL}) {
    Simulation sim;
    cbs::testing::ClosureEvents events(sim);
    LinkConfig cfg;
    cfg.base_rate = 1.0e6;
    cfg.per_connection_cap = 0.12e6;
    cfg.noise_sigma = 0.25;
    cfg.noise_rho = 0.8;
    cfg.noise_step = 5.0;
    cfg.profile = cbs::net::DiurnalProfile::business_pipe();
    cfg.setup_latency = 0.3;
    cbs::testing::RecordingOwner owner(sim);
    Link link(sim, owner, 0, cfg, RngStream(seed).substream("link"));

    RngStream rng(RngStream(seed).substream("storm"));
    auto submitted = std::make_shared<std::vector<TransferId>>();
    std::size_t cancellations = 0;
    double t = 0.0;
    for (int i = 0; i < 48; ++i) {
      t += rng.uniform(0.05, 2.0);
      const double bytes = rng.uniform(0.1e6, 2.5e6);
      const int threads = 1 + static_cast<int>(rng.uniform_int(0, 5));
      events.at(t, [&link, submitted, bytes, threads] {
        submitted->push_back(link.submit(bytes, threads, 0, 0));
      });
      // The storm also cancels: roughly every seventh submission, abort a
      // pseudo-random earlier transfer (a no-op when already finished).
      if (i % 7 == 3) {
        const double when = t + rng.uniform(0.1, 1.0);
        const std::uint64_t pick = rng.uniform_int(0, 1U << 20U);
        events.at(when, [&link, &cancellations, submitted, pick] {
          if (submitted->empty()) return;
          if (link.cancel((*submitted)[pick % submitted->size()])) {
            ++cancellations;
          }
        });
      }
    }

    // Step through the storm, re-deriving the whole allocation from
    // scratch at every checkpoint.
    std::size_t checked = 0;
    for (double checkpoint = 0.5; checkpoint < t + 120.0;
         checkpoint += rng.uniform(0.4, 2.5)) {
      sim.run_until(checkpoint);
      const std::vector<Link::RateSample> samples = link.current_rates();
      if (samples.empty()) continue;
      ++checked;
      const double capacity = link.last_allocation_capacity();
      const auto reference =
          reference_waterfill(samples, capacity, cfg.per_connection_cap);
      ASSERT_EQ(reference.size(), samples.size());
      double total = 0.0;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        // current_rates() and the sorted-back reference are both ascending
        // id, so rows line up directly. Bit equality, not tolerance: both
        // sides perform the identical FP operations in identical order.
        EXPECT_EQ(reference[i].first, samples[i].id);
        EXPECT_EQ(reference[i].second, samples[i].rate)
            << "seed " << seed << " checkpoint " << checkpoint << " id "
            << samples[i].id;
        // Max-min sanity: never above the thread demand cap.
        EXPECT_LE(samples[i].rate,
                  samples[i].threads * cfg.per_connection_cap);
        total += samples[i].rate;
      }
      EXPECT_LE(total, capacity * (1.0 + 1e-9));
      if (sim.pending_events() == 0) break;
    }
    EXPECT_GT(checked, 10U) << "storm never reached a populated checkpoint";

    sim.run();
    EXPECT_EQ(owner.transfers.size() + cancellations, submitted->size());
  }
}

TEST(LinkForkEquivalence, MidFlightSoAStateForksBitExact) {
  // Each seed forks twice: once with data flowing (a hot pool mixed with
  // pending activations), once with the link severed by an outage that
  // both copies lift after the fork. A mid-storm outage cycle first gives
  // transfers non-zero abort counts, which set their reconnect backoff.
  for (const std::uint64_t seed : {5ULL, 17ULL, 301ULL}) {
    for (const bool severed : {false, true}) {
      Simulation sim_a;
      LinkConfig cfg;
      cfg.base_rate = 1.2e6;
      cfg.per_connection_cap = 0.15e6;
      cfg.noise_sigma = 0.3;
      cfg.noise_rho = 0.85;
      cfg.noise_step = 4.0;
      cfg.profile = cbs::net::DiurnalProfile::business_pipe();
      cfg.setup_latency = 0.4;
      cbs::testing::RecordingOwner owner_a(sim_a);
      Link a(sim_a, owner_a, 0, cfg, RngStream(seed).substream("link"));

      RngStream rng(RngStream(seed).substream("storm"));
      double t = 0.0;
      for (int i = 0; i < 24; ++i) {
        t += rng.uniform(0.05, 1.2);
        const double bytes = rng.uniform(0.3e6, 3.0e6);
        const int threads = 1 + static_cast<int>(rng.uniform_int(0, 3));
        a.submit(bytes, threads, 0, static_cast<std::uint64_t>(i) + 1);
        if (i == 10) a.set_outage(true);
        if (i == 14) a.set_outage(false);
        // Drain to just past this submission so the next one happens at
        // its own timestamp (submissions are direct calls, not closures,
        // so the engine holds only the link's events at the fork point).
        sim_a.run_until(t);
      }
      ASSERT_GT(a.outage_aborts(), 0U) << "the outage severed nothing";
      // Fork inside the last transfer's setup window: the pool holds a
      // mix of activated (hot) and pending-activation (cold-only)
      // transfers — or, severed, only parked ones.
      sim_a.run_until(t + 0.2);
      ASSERT_GT(a.active_transfers(), 0U) << "storm drained before the fork";
      if (severed) a.set_outage(true);

      const std::size_t pre_fork = owner_a.transfers.size();
      Simulation sim_b(sim_a);
      cbs::testing::RecordingOwner owner_b(sim_b);
      Link b(sim_b, owner_b, a);
      sim_b.verify_fork();
      if (severed) {
        a.set_outage(false);
        b.set_outage(false);
      }

      sim_a.run();
      sim_b.run();
      const std::vector<TransferRecord> recs_a = owner_a.transfer_records();
      const std::vector<TransferRecord> recs_b = owner_b.transfer_records();

      // Bit-exact equivalence of everything after the fork point: the
      // fork sees the same noise draws, the same reconnect backoffs, the
      // same completion order. (recs_a also holds the pre-fork
      // completions. The clone keeps no ledger: its history is those
      // records followed by its own, checked against the source's below.)
      ASSERT_EQ(recs_a.size(), pre_fork + recs_b.size());
      for (std::size_t i = 0; i < recs_b.size(); ++i) {
        const TransferRecord& ra = recs_a[pre_fork + i];
        EXPECT_EQ(ra.id, recs_b[i].id);
        EXPECT_EQ(ra.bytes, recs_b[i].bytes);
        EXPECT_EQ(ra.threads, recs_b[i].threads);
        EXPECT_EQ(ra.requested, recs_b[i].requested);
        EXPECT_EQ(ra.started, recs_b[i].started);
        EXPECT_EQ(ra.completed, recs_b[i].completed);
        EXPECT_EQ(owner_a.transfers[pre_fork + i].tag,
                  owner_b.transfers[i].tag);
      }
      std::vector<TransferRecord> ledger_b(
          recs_a.begin(),
          recs_a.begin() + static_cast<std::ptrdiff_t>(pre_fork));
      ledger_b.insert(ledger_b.end(), recs_b.begin(), recs_b.end());
      ASSERT_EQ(recs_a.size(), ledger_b.size());
      for (std::size_t i = 0; i < recs_a.size(); ++i) {
        EXPECT_EQ(recs_a[i].id, ledger_b[i].id);
        EXPECT_EQ(recs_a[i].completed, ledger_b[i].completed);
      }
      EXPECT_EQ(recs_a.size(), 24U);
      EXPECT_EQ(a.total_bytes_delivered(), b.total_bytes_delivered());
      EXPECT_EQ(a.wasted_bytes(), b.wasted_bytes());
      EXPECT_EQ(a.outage_aborts(), b.outage_aborts());
      EXPECT_EQ(a.busy_time(), b.busy_time());
      EXPECT_EQ(sim_a.now(), sim_b.now());
    }
  }
}

}  // namespace
