// RngStream::State round-trip: saving the 256-bit state and restoring it
// must replay the exact draw sequence through every distribution the
// simulator consumes. This is the primitive the fork machinery
// (harness/world.hpp) is built on — if any sampler
// kept hidden state outside the RngStream (a cached Box–Muller spare, a
// static, thread-local scratch), forks would silently diverge from their
// parents and the fork-equivalence goldens would be unexplainable.
//
// Coverage maps to the actual call sites:
//   src/workload/generator.cpp   — bounded_pareto, uniform, triangular,
//                                  discrete (job-type weights)
//   src/workload/arrival.cpp     — poisson (batch sizes)
//   src/workload/ground_truth.cpp— lognormal, raw next()
//   src/simcore/fault_plan.cpp   — exponential interarrivals via
//                                  -mtbf*log1p(-next_double()), substreams
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "simcore/rng.hpp"
#include "stats/distributions.hpp"

namespace {

using cbs::sim::RngStream;

constexpr int kDraws = 256;

// Saves the state, produces a reference sequence via `draw`, restores, and
// requires the replayed sequence to be identical (exact ==, not near).
template <typename DrawFn>
void expect_replays_exactly(RngStream& rng, DrawFn draw) {
  const RngStream::State saved = rng.state();
  std::vector<decltype(draw(rng))> reference;
  reference.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) reference.push_back(draw(rng));

  rng.set_state(saved);
  for (int i = 0; i < kDraws; ++i) {
    EXPECT_EQ(draw(rng), reference[static_cast<std::size_t>(i)])
        << "draw " << i << " diverged after state restore";
  }
}

TEST(RngRoundTripTest, RawBitsReplayExactly) {
  RngStream rng(0xfeedface);
  expect_replays_exactly(rng, [](RngStream& r) { return r.next(); });
}

TEST(RngRoundTripTest, UniformDoublesReplayExactly) {
  RngStream rng(7);
  expect_replays_exactly(rng, [](RngStream& r) { return r.next_double(); });
  expect_replays_exactly(rng, [](RngStream& r) { return r.uniform(0.4, 1.2); });
  expect_replays_exactly(rng,
                         [](RngStream& r) { return r.uniform_int(3, 4096); });
}

TEST(RngRoundTripTest, ExponentialReplaysExactly) {
  // fault_plan.cpp draws MTBF interarrivals as -mtbf*log1p(-u); both the
  // library sampler and the inlined formula must replay bit-for-bit.
  RngStream rng(11);
  expect_replays_exactly(
      rng, [](RngStream& r) { return cbs::stats::sample_exponential(r, 0.01); });
  expect_replays_exactly(rng, [](RngStream& r) {
    return -3000.0 * std::log1p(-r.next_double());
  });
}

TEST(RngRoundTripTest, PoissonReplaysExactlyOnBothBranches) {
  // arrival.cpp batch sizes: Knuth multiplication for small means, normal
  // approximation for mean > 60 — the branch must not leak hidden state.
  RngStream rng(13);
  expect_replays_exactly(
      rng, [](RngStream& r) { return cbs::stats::sample_poisson(r, 15.0); });
  expect_replays_exactly(
      rng, [](RngStream& r) { return cbs::stats::sample_poisson(r, 200.0); });
}

TEST(RngRoundTripTest, NormalFamilyReplaysExactly) {
  // Box–Muller implementations often cache the spare deviate; ours must
  // derive everything from the stream so a restore replays exactly.
  RngStream rng(17);
  expect_replays_exactly(
      rng, [](RngStream& r) { return cbs::stats::sample_standard_normal(r); });
  expect_replays_exactly(
      rng, [](RngStream& r) { return cbs::stats::sample_normal(r, 5.0, 2.0); });
  expect_replays_exactly(rng, [](RngStream& r) {
    return cbs::stats::sample_lognormal(r, 1.2, 0.4);
  });
}

TEST(RngRoundTripTest, SizeLawsReplayExactly) {
  RngStream rng(19);
  expect_replays_exactly(rng, [](RngStream& r) {
    return cbs::stats::sample_bounded_pareto(r, 1.5, 1.0, 512.0);
  });
  expect_replays_exactly(rng, [](RngStream& r) {
    return cbs::stats::sample_triangular(r, 150.0, 300.0, 600.0);
  });
}

TEST(RngRoundTripTest, DiscreteReplaysExactly) {
  const std::vector<double> weights{0.25, 0.10, 0.15, 0.30, 0.05, 0.15};
  RngStream rng(23);
  expect_replays_exactly(rng, [&](RngStream& r) {
    return cbs::stats::sample_discrete(r, weights);
  });
}

TEST(RngRoundTripTest, InterleavedDistributionsReplayExactly) {
  // The workload generator interleaves several samplers per document; the
  // combined transcript must replay as one sequence.
  RngStream rng(29);
  const RngStream::State saved = rng.state();
  auto transcript = [](RngStream& r) {
    std::vector<double> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back(cbs::stats::sample_bounded_pareto(r, 1.5, 1.0, 512.0));
      out.push_back(static_cast<double>(cbs::stats::sample_poisson(r, 15.0)));
      out.push_back(cbs::stats::sample_triangular(r, 0.0, 0.5, 1.0));
      out.push_back(cbs::stats::sample_lognormal(r, 0.8, 0.3));
      out.push_back(r.uniform(0.2, 0.6));
    }
    return out;
  };
  const std::vector<double> reference = transcript(rng);
  rng.set_state(saved);
  EXPECT_EQ(transcript(rng), reference);
}

TEST(RngRoundTripTest, MidSequenceRestoreReplaysTheTail) {
  RngStream rng(31);
  for (int i = 0; i < 100; ++i) (void)rng.next();  // burn a prefix
  const RngStream::State mid = rng.state();
  std::vector<double> tail;
  for (int i = 0; i < kDraws; ++i)
    tail.push_back(cbs::stats::sample_exponential(rng, 1.0 / 900.0));
  rng.set_state(mid);
  for (int i = 0; i < kDraws; ++i) {
    EXPECT_EQ(cbs::stats::sample_exponential(rng, 1.0 / 900.0),
              tail[static_cast<std::size_t>(i)]);
  }
}

TEST(RngRoundTripTest, SubstreamsAreAFunctionOfStateOnly) {
  // fault_plan.cpp derives per-cluster substreams; after a restore the same
  // derivations must yield identical children (substream() is const and
  // pure, so this follows from state round-tripping — pin it regardless).
  RngStream rng(37);
  for (int i = 0; i < 5; ++i) (void)rng.next();
  const RngStream::State saved = rng.state();
  RngStream child_a = rng.substream("ic");
  RngStream child_b = rng.substream(std::uint64_t{42});
  const std::uint64_t a0 = child_a.next();
  const std::uint64_t b0 = child_b.next();

  rng.set_state(saved);
  RngStream child_a2 = rng.substream("ic");
  RngStream child_b2 = rng.substream(std::uint64_t{42});
  EXPECT_EQ(child_a2.next(), a0);
  EXPECT_EQ(child_b2.next(), b0);
  EXPECT_EQ(rng.state(), saved) << "substream derivation must not advance the parent";
}

TEST(RngRoundTripTest, StateComparesEqualAcrossCopies) {
  RngStream rng(41);
  RngStream copy = rng;  // value semantics: a copy IS a snapshot
  EXPECT_EQ(copy, rng);
  const std::uint64_t from_copy = copy.next();
  EXPECT_EQ(rng.next(), from_copy);
  EXPECT_EQ(copy, rng);
}

}  // namespace
