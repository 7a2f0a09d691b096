// Unit tests for the online per-VM hazard estimator (models/hazard.hpp):
// prior fallback on cold machines, EWMA and Bayes rate updates, the
// min-gap floor on clock-adjacent failures, probability bounds, the
// prediction scorecard (TP/FP/FN), and value-semantics cloning.

#include <gtest/gtest.h>

#include <cmath>

#include "models/hazard.hpp"

namespace {

using cbs::models::HazardModelConfig;
using cbs::models::HazardPredictorKind;
using cbs::models::VmHazardEstimator;

HazardModelConfig config_for(HazardPredictorKind kind) {
  HazardModelConfig cfg;
  cfg.kind = kind;
  return cfg;
}

TEST(HazardEstimator, OffKindPredictsNothing) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kOff), 4);
  est.on_failure(0, 100.0);
  est.on_failure(0, 101.0);
  EXPECT_EQ(est.hazard_rate(0, 200.0), 0.0);
  EXPECT_EQ(est.failure_probability(0, 200.0, 600.0), 0.0);
  EXPECT_EQ(cbs::models::mean_failure_probability(est, 200.0, 600.0), 0.0);
}

TEST(HazardEstimator, ZeroFailureHistoryFallsBackToPrior) {
  for (const auto kind :
       {HazardPredictorKind::kEwma, HazardPredictorKind::kBayes}) {
    VmHazardEstimator est(config_for(kind), 2);
    const double prior = 1.0 / 20000.0;  // one failure per 20000 s
    // A machine with no history must be believed at (near) the prior rate,
    // not at zero (overtrusted) or infinity (condemned).
    const double rate = est.hazard_rate(0, 0.0);
    EXPECT_GT(rate, 0.0);
    EXPECT_LE(rate, prior * 1.01);
    const double p = est.failure_probability(0, 0.0, 600.0);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 0.05);  // the prior must not trigger a default drain
  }
}

TEST(HazardEstimator, SingleSampleInitializesEwmaDirectly) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  // First observed gap is 500 s; right after the crash the believed rate
  // is 1/500 (survival time is zero, the EWMA holds one sample).
  est.on_failure(0, 500.0);
  EXPECT_DOUBLE_EQ(est.hazard_rate(0, 500.0), 1.0 / 500.0);
  EXPECT_EQ(est.failures(0), 1U);
}

TEST(HazardEstimator, SurvivalDiscountsTheEwmaRate) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.on_failure(0, 500.0);
  // A machine that has outlived its typical gap is believed less hazardous:
  // the rate decays as 1/survival once survival exceeds the gap EWMA.
  const double at_crash = est.hazard_rate(0, 500.0);
  const double much_later = est.hazard_rate(0, 3000.0);
  EXPECT_LT(much_later, at_crash);
  EXPECT_DOUBLE_EQ(much_later, 1.0 / 2500.0);
}

TEST(HazardEstimator, ClockAdjacentFailuresAreFloored) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  // Two crashes at the same instant: the gap floors at 1 s, so the rate
  // stays finite and the probability stays below 1.
  est.on_failure(0, 100.0);
  est.on_failure(0, 100.0);
  est.on_failure(0, 100.0);
  const double rate = est.hazard_rate(0, 100.0);
  EXPECT_TRUE(std::isfinite(rate));
  EXPECT_LE(rate, 1.0);
  const double p = est.failure_probability(0, 100.0, 600.0);
  EXPECT_LT(p, 1.0);
  EXPECT_GT(p, 0.9);  // still read as extremely hazardous
}

TEST(HazardEstimator, BayesRateGrowsWithFailuresAndShrinksWithExposure) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kBayes), 2);
  est.on_failure(0, 1000.0);
  est.on_failure(0, 2000.0);
  est.on_failure(0, 3000.0);
  // Machine 0 crashed three times, machine 1 never: the posterior rate of
  // the hot machine must dominate the cold one at equal exposure.
  EXPECT_GT(est.hazard_rate(0, 3000.0), est.hazard_rate(1, 3000.0));
  // More uneventful exposure lowers the believed rate.
  EXPECT_LT(est.hazard_rate(0, 30000.0), est.hazard_rate(0, 3000.0));
}

TEST(HazardEstimator, ProbabilityIsBoundedAndMonotoneInWindow) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.on_failure(0, 50.0);
  est.on_failure(0, 60.0);
  double prev = 0.0;
  for (const double w : {0.0, 10.0, 100.0, 1000.0, 1.0e6}) {
    const double p = est.failure_probability(0, 60.0, w);
    EXPECT_GE(p, 0.0);
    // Mathematically < 1 always, but −expm1(−rate·w) rounds to exactly 1.0
    // once rate·w overwhelms double precision — allow the saturated bound.
    EXPECT_LE(p, 1.0);
    EXPECT_GE(p, prev);  // longer window, more chance to fail
    prev = p;
  }
  EXPECT_EQ(est.failure_probability(0, 60.0, 0.0), 0.0);
}

TEST(HazardEstimator, InWindowCrashScoresTruePositive) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.note_prediction(0, 100.0, 50.0);
  EXPECT_TRUE(est.flagged(0));
  est.on_failure(0, 130.0);  // inside [100, 150]
  EXPECT_EQ(est.stats().predictions, 1U);
  EXPECT_EQ(est.stats().true_positives, 1U);
  EXPECT_EQ(est.stats().false_positives, 0U);
  EXPECT_EQ(est.stats().false_negatives, 0U);
  EXPECT_FALSE(est.flagged(0));  // the flag resolved
  EXPECT_DOUBLE_EQ(est.stats().precision(), 1.0);
  EXPECT_DOUBLE_EQ(est.stats().recall(), 1.0);
}

TEST(HazardEstimator, ExpiredFlagScoresFalsePositive) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.note_prediction(0, 100.0, 50.0);
  est.settle(149.0);  // still within the window: nothing resolves
  EXPECT_TRUE(est.flagged(0));
  EXPECT_EQ(est.stats().false_positives, 0U);
  est.settle(151.0);  // window passed uneventfully
  EXPECT_FALSE(est.flagged(0));
  EXPECT_EQ(est.stats().false_positives, 1U);
  EXPECT_EQ(est.stats().true_positives, 0U);
  EXPECT_DOUBLE_EQ(est.stats().precision(), 0.0);
}

TEST(HazardEstimator, UnflaggedCrashScoresFalseNegative) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 2);
  est.on_failure(1, 200.0);  // no flag anywhere
  EXPECT_EQ(est.stats().false_negatives, 1U);
  EXPECT_EQ(est.stats().predictions, 0U);
  EXPECT_DOUBLE_EQ(est.stats().recall(), 0.0);
}

TEST(HazardEstimator, CrashAfterExpiredFlagScoresBothFpAndFn) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.note_prediction(0, 100.0, 50.0);
  // No settle() ran in between: the crash at 300 must first expire the
  // stale flag (FP) and then count itself as unpredicted (FN).
  est.on_failure(0, 300.0);
  EXPECT_EQ(est.stats().false_positives, 1U);
  EXPECT_EQ(est.stats().false_negatives, 1U);
  EXPECT_EQ(est.stats().true_positives, 0U);
}

TEST(HazardEstimator, ReflaggingExtendsWithoutDoubleCounting) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kEwma), 1);
  est.note_prediction(0, 100.0, 50.0);
  est.note_prediction(0, 140.0, 50.0);  // extend to 190, same prediction
  EXPECT_EQ(est.stats().predictions, 1U);
  est.settle(160.0);  // the original window end passed, but it was extended
  EXPECT_TRUE(est.flagged(0));
  EXPECT_EQ(est.stats().false_positives, 0U);
  est.on_failure(0, 185.0);
  EXPECT_EQ(est.stats().true_positives, 1U);
}

TEST(HazardEstimator, EnsureMachinesGrowsColdFromNow) {
  VmHazardEstimator est(config_for(HazardPredictorKind::kBayes), 2);
  est.on_failure(0, 1000.0);
  est.ensure_machines(4, 5000.0);
  EXPECT_EQ(est.machine_count(), 4U);
  est.ensure_machines(3, 6000.0);  // never shrinks
  EXPECT_EQ(est.machine_count(), 4U);
  EXPECT_EQ(est.failures(2), 0U);
  // The late machine's exposure is metered from its registration, so at
  // equal wall time it has less exposure and a *higher* prior-driven rate
  // than a machine registered at t=0 (exposure anchors differ).
  EXPECT_GE(est.hazard_rate(2, 6000.0), est.hazard_rate(1, 6000.0));
}

TEST(HazardEstimator, CopyIsIndependent) {
  VmHazardEstimator a(config_for(HazardPredictorKind::kEwma), 2);
  a.on_failure(0, 100.0);
  a.note_prediction(1, 100.0, 50.0);

  VmHazardEstimator b = a;  // the fork path: plain value copy
  EXPECT_EQ(b.failures(0), 1U);
  EXPECT_TRUE(b.flagged(1));
  EXPECT_EQ(a.hazard_rate(0, 100.0), b.hazard_rate(0, 100.0));

  // Divergence after the copy must not leak either way.
  b.on_failure(0, 110.0);
  EXPECT_EQ(a.failures(0), 1U);
  EXPECT_EQ(b.failures(0), 2U);
  a.settle(200.0);
  EXPECT_EQ(a.stats().false_positives, 1U);
  EXPECT_EQ(b.stats().false_positives, 0U);
}

}  // namespace
