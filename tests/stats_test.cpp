#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "simcore/rng.hpp"
#include "stats/distributions.hpp"
#include "stats/aggregate.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace {

using cbs::sim::RngStream;
using namespace cbs::stats;

constexpr int kSamples = 20000;

TEST(DistributionsTest, ExponentialMeanMatchesRate) {
  RngStream rng(1);
  Summary s;
  for (int i = 0; i < kSamples; ++i) s.add(sample_exponential(rng, 0.25));
  EXPECT_NEAR(s.mean(), 4.0, 0.15);
  EXPECT_GE(s.min(), 0.0);
}

TEST(DistributionsTest, PoissonSmallMean) {
  RngStream rng(2);
  Summary s;
  for (int i = 0; i < kSamples; ++i) {
    s.add(static_cast<double>(sample_poisson(rng, 15.0)));
  }
  EXPECT_NEAR(s.mean(), 15.0, 0.2);
  EXPECT_NEAR(s.variance(), 15.0, 0.8);
}

TEST(DistributionsTest, PoissonZeroMeanIsZero) {
  RngStream rng(3);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0u);
}

TEST(DistributionsTest, PoissonLargeMeanUsesNormalApprox) {
  RngStream rng(4);
  Summary s;
  for (int i = 0; i < kSamples; ++i) {
    s.add(static_cast<double>(sample_poisson(rng, 200.0)));
  }
  EXPECT_NEAR(s.mean(), 200.0, 1.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(200.0), 0.8);
}

TEST(DistributionsTest, StandardNormalMoments) {
  RngStream rng(5);
  Summary s;
  for (int i = 0; i < kSamples; ++i) s.add(sample_standard_normal(rng));
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(DistributionsTest, LognormalMedian) {
  RngStream rng(6);
  std::vector<double> xs;
  for (int i = 0; i < kSamples; ++i) xs.push_back(sample_lognormal(rng, 1.0, 0.5));
  // Median of lognormal is exp(mu).
  EXPECT_NEAR(quantile(xs, 0.5), std::exp(1.0), 0.1);
}

TEST(DistributionsTest, BoundedParetoStaysInBounds) {
  RngStream rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double x = sample_bounded_pareto(rng, 1.1, 1.0, 300.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 300.0);
  }
}

TEST(DistributionsTest, BoundedParetoIsSmallBiased) {
  RngStream rng(8);
  Summary s;
  for (int i = 0; i < kSamples; ++i) {
    s.add(sample_bounded_pareto(rng, 1.1, 1.0, 300.0));
  }
  // Heavy mass near the lower bound: mean far below the midpoint.
  EXPECT_LT(s.mean(), 80.0);
}

TEST(DistributionsTest, TriangularBoundsAndMean) {
  RngStream rng(9);
  Summary s;
  for (int i = 0; i < kSamples; ++i) {
    const double x = sample_triangular(rng, 0.0, 1.0, 2.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 2.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 1.0, 0.02);  // (lo + mode + hi) / 3
}

TEST(DistributionsTest, DiscreteRespectsWeights) {
  RngStream rng(10);
  std::vector<double> counts(3, 0.0);
  for (int i = 0; i < kSamples; ++i) {
    counts[sample_discrete(rng, std::array{1.0, 2.0, 1.0})] += 1.0;
  }
  EXPECT_NEAR(counts[1] / kSamples, 0.5, 0.02);
  EXPECT_NEAR(counts[0] / kSamples, 0.25, 0.02);
}

TEST(DistributionsTest, DiscreteZeroWeightNeverSampled) {
  RngStream rng(11);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE(sample_discrete(rng, std::array{1.0, 0.0, 1.0}), 1u);
  }
}

TEST(DistributionsTest, DiscreteIsTheFirstNegativeRemainder) {
  // The reference: subtract the weights in order from u * total and stop
  // at the first negative remainder (the last index if none is).
  const auto reference = [](RngStream& rng, std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) total += w;
    double x = rng.next_double() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  };
  const std::vector<std::vector<double>> tables = {
      {3.0, 2.0, 2.0, 1.0, 0.2, 2.5, 2.0},
      {1.0, 1.0, 2.0, 2.5, 3.0, 1.0, 1.5},
      {1.0, 0.0, 1.0},
      {0.0, 0.0, 5.0, 0.0},
      {0.1, 0.2, 0.3},
      {7.0}};
  for (const std::vector<double>& weights : tables) {
    RngStream a(12);
    RngStream b(12);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(sample_discrete(a, weights), reference(b, weights)) << i;
    }
  }
}

// ---- Summary -------------------------------------------------------

TEST(SummaryTest, ExactForKnownSample) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(SummaryTest, SingleValueHasZeroVariance) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(SummaryTest, MergeEqualsSequential) {
  RngStream rng(12);
  Summary all;
  Summary a;
  Summary b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 17.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmptyIsIdentity) {
  Summary a;
  a.add(1.0);
  a.add(2.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Summary b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(SummaryTest, QuantileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(SummaryTest, StddevOfWindow) {
  EXPECT_DOUBLE_EQ(stddev_of({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev_of({5.0}), 0.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
}

// ---- TimeSeries -----------------------------------------------------

TEST(TimeSeriesTest, ValueAtIsStepFunction) {
  TimeSeries ts;
  ts.add(10.0, 1.0);
  ts.add(20.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5.0), 0.0);              // before first: fallback
  EXPECT_DOUBLE_EQ(ts.value_at(5.0, -1.0), -1.0);       // custom fallback
  EXPECT_DOUBLE_EQ(ts.value_at(10.0), 1.0);             // inclusive at point
  EXPECT_DOUBLE_EQ(ts.value_at(15.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(20.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1e9), 2.0);
}

TEST(TimeSeriesTest, ResampleGrid) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 3.0);
  const auto grid = ts.resample(0.0, 20.0, 5.0);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0].value, 1.0);
  EXPECT_DOUBLE_EQ(grid[1].value, 1.0);
  EXPECT_DOUBLE_EQ(grid[2].value, 3.0);
  EXPECT_DOUBLE_EQ(grid[4].value, 3.0);
}

TEST(TimeSeriesTest, TimeAverageOfStep) {
  TimeSeries ts;
  ts.add(0.0, 0.0);
  ts.add(5.0, 10.0);
  // 0 for [0,5), 10 for [5,10] -> average 5.
  EXPECT_DOUBLE_EQ(ts.time_average(0.0, 10.0), 5.0);
}

TEST(TimeSeriesTest, TimeAverageConstant) {
  TimeSeries ts;
  ts.add(0.0, 4.0);
  EXPECT_DOUBLE_EQ(ts.time_average(2.0, 8.0), 4.0);
}

TEST(TimeSeriesTest, ResampleSinglePointGrid) {
  TimeSeries ts;
  ts.add(0.0, 3.0);
  const auto grid = ts.resample(5.0, 5.0, 1.0);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_DOUBLE_EQ(grid[0].value, 3.0);
}

TEST(TimeSeriesTest, EqualTimestampsAllowed) {
  TimeSeries ts;
  ts.add(1.0, 1.0);
  ts.add(1.0, 2.0);  // same instant, later write wins for t >= 1
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 2.0);
}


TEST(SummaryTest, Ci95HalfwidthMatchesStudentT) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  // n = 5 -> df = 4 -> t = 2.776; stderr = stddev/sqrt(5).
  const double se = s.stddev() / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), se);
  EXPECT_NEAR(s.ci95_halfwidth(), 2.776 * se, 1e-3 * se);
}

TEST(SummaryTest, Ci95IsZeroForTinySamples) {
  Summary s;
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SummaryTest, Ci95UsesNormalQuantileForLargeSamples) {
  Summary s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i % 7));
  EXPECT_NEAR(s.ci95_halfwidth(), 1.96 * s.stderr_mean(),
              1e-12 * s.stderr_mean());
}

TEST(GroupedSummaryTest, FoldsByKeyInFirstSeenOrder) {
  GroupedSummary g;
  g.add("b", 1.0);
  g.add("a", 10.0);
  g.add("b", 3.0);
  ASSERT_EQ(g.group_count(), 2u);
  EXPECT_EQ(g.keys()[0], "b");
  EXPECT_EQ(g.keys()[1], "a");
  EXPECT_TRUE(g.contains("a"));
  EXPECT_FALSE(g.contains("c"));
  EXPECT_DOUBLE_EQ(g.at("b").mean(), 2.0);
  EXPECT_EQ(g.at("missing").count(), 0u);
}

TEST(GroupedSummaryTest, MergeFoldsWholeSummaries) {
  Summary s;
  s.add(2.0);
  s.add(4.0);
  GroupedSummary g;
  g.add("k", 0.0);
  g.merge("k", s);
  EXPECT_EQ(g.at("k").count(), 3u);
  EXPECT_DOUBLE_EQ(g.at("k").mean(), 2.0);
}

TEST(SummaryMatrixTest, RowMajorCellsAndLabels) {
  SummaryMatrix m({"r0", "r1"}, {"c0", "c1", "c2"});
  m.add(1, 2, 5.0);
  m.add(1, 2, 7.0);
  EXPECT_EQ(m.cell(0, 0).count(), 0u);
  EXPECT_DOUBLE_EQ(m.cell(1, 2).mean(), 6.0);
  EXPECT_EQ(m.row_labels().size(), 2u);
  EXPECT_EQ(m.col_labels().size(), 3u);
  EXPECT_THROW(static_cast<void>(m.cell(2, 0)), std::out_of_range);
  EXPECT_THROW(m.add(0, 3, 1.0), std::out_of_range);
}

}  // namespace
