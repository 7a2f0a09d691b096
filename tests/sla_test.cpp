#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sla/job_outcome.hpp"
#include "sla/metrics.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/slack.hpp"

namespace {

using namespace cbs::sla;

JobOutcome outcome(std::uint64_t seq, double completed, double output_mb = 10.0,
                   Placement placement = Placement::kInternal,
                   std::size_t batch = 0, double arrival = 0.0,
                   double service = 1.0) {
  JobOutcome o;
  o.seq_id = seq;
  o.doc_id = seq;
  o.batch_index = batch;
  o.arrival = arrival;
  o.completed = completed;
  o.input_mb = output_mb;
  o.output_mb = output_mb;
  o.true_service_seconds = service;
  o.placement = placement;
  return o;
}

// ---- slack (Eq. 1-2) -------------------------------------------------------

TEST(SlackTest, SatisfiesSlackBoundary) {
  EXPECT_TRUE(satisfies_slack(40.0, 40.0));
  EXPECT_FALSE(satisfies_slack(40.001, 40.0));
  EXPECT_FALSE(satisfies_slack(40.0, 40.0, 1.0));  // margin makes it fail
  EXPECT_TRUE(satisfies_slack(35.0, 40.0, 5.0));
}

// ---- OO metric (Eq. 3-6) -----------------------------------------------------

TEST(OoMetricTest, StrictOrderStopsAtFirstGap) {
  // Jobs 1,2,4 complete by t=10; job 3 is missing.
  std::vector<JobOutcome> outcomes = {
      outcome(1, 2.0, 5.0), outcome(2, 4.0, 7.0), outcome(3, 50.0, 11.0),
      outcome(4, 6.0, 13.0)};
  OoMetricCalculator oo(outcomes);
  const OoSample s = oo.sample_at(10.0, 0);
  EXPECT_EQ(s.max_in_order, 2u);
  EXPECT_DOUBLE_EQ(s.ordered_mb, 12.0);  // sizes of jobs 1 and 2
  EXPECT_EQ(s.completed_count, 3u);
}

TEST(OoMetricTest, ToleranceAllowsGaps) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 2.0, 5.0), outcome(2, 4.0, 7.0), outcome(3, 50.0, 11.0),
      outcome(4, 6.0, 13.0)};
  OoMetricCalculator oo(outcomes);
  // With t_l = 1: job 4 qualifies (one missing job with smaller id).
  const OoSample s = oo.sample_at(10.0, 1);
  EXPECT_EQ(s.max_in_order, 4u);
  // Eq. 6: sum over completed jobs with id <= 4 -> 5 + 7 + 13.
  EXPECT_DOUBLE_EQ(s.ordered_mb, 25.0);
}

TEST(OoMetricTest, NothingCompletedMeansZero) {
  std::vector<JobOutcome> outcomes = {outcome(1, 100.0), outcome(2, 200.0)};
  OoMetricCalculator oo(outcomes);
  const OoSample s = oo.sample_at(50.0, 0);
  EXPECT_EQ(s.max_in_order, 0u);
  EXPECT_DOUBLE_EQ(s.ordered_mb, 0.0);
}

TEST(OoMetricTest, FirstJobMissingBlocksEverythingAtZeroTolerance) {
  std::vector<JobOutcome> outcomes = {outcome(1, 100.0, 5.0),
                                      outcome(2, 1.0, 7.0),
                                      outcome(3, 2.0, 9.0)};
  OoMetricCalculator oo(outcomes);
  EXPECT_EQ(oo.sample_at(50.0, 0).max_in_order, 0u);
  // t_l = 2 admits job 3 (two missing... id 3 - 2 <= |{2,3}| = 2: yes).
  const OoSample s = oo.sample_at(50.0, 2);
  EXPECT_EQ(s.max_in_order, 3u);
  EXPECT_DOUBLE_EQ(s.ordered_mb, 16.0);
}

TEST(OoMetricTest, EventuallyAllOutputIsOrdered) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 30.0, 5.0), outcome(2, 10.0, 7.0), outcome(3, 20.0, 9.0)};
  OoMetricCalculator oo(outcomes);
  const OoSample s = oo.sample_at(100.0, 0);
  EXPECT_EQ(s.max_in_order, 3u);
  EXPECT_DOUBLE_EQ(s.ordered_mb, 21.0);
}

TEST(OoMetricTest, OrderedMbMonotoneInTolerance) {
  std::vector<JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    outcomes.push_back(outcome(i, static_cast<double>((i * 7) % 20), 3.0));
  }
  OoMetricCalculator oo(outcomes);
  for (double t = 0.0; t <= 20.0; t += 2.0) {
    double prev = -1.0;
    for (std::uint64_t tol = 0; tol <= 5; ++tol) {
      const double mb = oo.sample_at(t, tol).ordered_mb;
      EXPECT_GE(mb, prev) << "t=" << t << " tol=" << tol;
      prev = mb;
    }
  }
}

TEST(OoMetricTest, OrderedMbMonotoneInTime) {
  std::vector<JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    outcomes.push_back(outcome(i, static_cast<double>((i * 13) % 31), 3.0));
  }
  OoMetricCalculator oo(outcomes);
  double prev = -1.0;
  for (const auto& s : oo.series(1.0, 2)) {
    EXPECT_GE(s.ordered_mb, prev);
    prev = s.ordered_mb;
  }
}

TEST(OoMetricTest, SeriesCoversRunAndEndsFlat) {
  std::vector<JobOutcome> outcomes = {outcome(1, 95.0)};
  OoMetricCalculator oo(outcomes);
  const auto series = oo.series(10.0, 0);
  EXPECT_GE(series.back().time, 95.0);
  EXPECT_DOUBLE_EQ(series.back().ordered_mb, 10.0);
}

/// Seeded outcome sets for the sweep test. Every other set puts completions
/// on a 60 s grid, so many are ties and half fall exactly on a 120 s sample
/// boundary; the rest use continuous times. Job 2 completes long after the
/// thousands of later ids, and about one row in 16 never completes
/// (`completed == 0`).
/// Output sizes span six decades so a change in summation order would show
/// in the last bits of o_t.
std::vector<JobOutcome> sweep_outcomes(std::uint64_t seed, std::uint64_t n) {
  std::mt19937_64 rng(seed);
  const bool on_grid = seed % 2 == 0;
  std::vector<JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= n; ++i) {
    double completed =
        on_grid ? 60.0 * static_cast<double>(1 + rng() % 200)
                : 12000.0 * std::generate_canonical<double, 53>(rng);
    if (rng() % 16 == 0) completed = 0.0;
    if (i == 2) completed = 20000.0;
    const double mb = std::ldexp(1.0 + std::generate_canonical<double, 53>(rng),
                                 static_cast<int>(rng() % 20) - 10);
    outcomes.push_back(outcome(i, completed, mb));
  }
  std::shuffle(outcomes.begin(), outcomes.end(), rng);
  return outcomes;
}

TEST(OoMetricTest, SeriesMatchesSampleAtBitForBit) {
  constexpr double kInterval = 120.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::uint64_t n = 3000;
    const OoMetricCalculator oo(sweep_outcomes(seed, n));
    for (const std::uint64_t tol : {std::uint64_t{0}, std::uint64_t{1},
                                    std::uint64_t{4}, n}) {
      const auto series = oo.series(kInterval, tol);
      std::size_t samples = 0;
      const double end = oo.last_completion() + kInterval;
      for (double t = 0.0; t <= end; t += kInterval) {
        ASSERT_LT(samples, series.size());
        const OoSample& s = series[samples++];
        const OoSample ref = oo.sample_at(t, tol);
        ASSERT_EQ(std::memcmp(&s.time, &ref.time, sizeof(double)), 0);
        ASSERT_EQ(s.max_in_order, ref.max_in_order)
            << "seed " << seed << " tol " << tol << " t " << t;
        ASSERT_EQ(s.completed_count, ref.completed_count)
            << "seed " << seed << " tol " << tol << " t " << t;
        ASSERT_EQ(
            std::memcmp(&s.ordered_mb, &ref.ordered_mb, sizeof(double)), 0)
            << "seed " << seed << " tol " << tol << " t " << t << ": "
            << s.ordered_mb << " vs " << ref.ordered_mb;
      }
      EXPECT_EQ(samples, series.size());
      // Job 2 holds the strict frontier at 1 until it lands at t = 20000.
      if (tol == 0) {
        for (const OoSample& s : series) {
          EXPECT_LE(s.max_in_order, s.time < 20000.0 ? 1u : n);
        }
      }
    }
  }
}

TEST(OoMetricTest, SeriesMatchesSampleAtWhenSampleTimesDrift) {
  // At a 0.1 s interval the sample times, a running sum, drift from k / 10.
  // Completions fall on the drifted times, on k / 10 and on k × 0.1, so a
  // due sample read off completed / interval alone would land one off.
  constexpr double kInterval = 0.1;
  std::vector<double> times;
  for (double t = 0.0; t <= 300.0; t += kInterval) times.push_back(t);
  std::vector<JobOutcome> outcomes;
  std::mt19937_64 rng(11);
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    const std::size_t k = 1 + rng() % 2900;
    const auto kd = static_cast<double>(k);
    const double completed[] = {times[k], kd / 10.0, kd * kInterval};
    const auto mb = static_cast<double>(1 + i % 7);
    outcomes.push_back(outcome(i, completed[rng() % 3], mb));
  }
  const OoMetricCalculator oo(outcomes);
  for (const std::uint64_t tol : {std::uint64_t{0}, std::uint64_t{3}}) {
    const auto series = oo.series(kInterval, tol);
    ASSERT_LE(series.size(), times.size());
    for (std::size_t k = 0; k < series.size(); ++k) {
      const OoSample& s = series[k];
      const OoSample ref = oo.sample_at(times[k], tol);
      ASSERT_EQ(s.completed_count, ref.completed_count) << "k " << k;
      ASSERT_EQ(s.max_in_order, ref.max_in_order) << "k " << k;
      ASSERT_EQ(std::memcmp(&s.ordered_mb, &ref.ordered_mb, sizeof(double)), 0)
          << "k " << k;
    }
  }
  // The drift is real: some k / 10 differs from the k-th sample time.
  std::size_t drifted = 0;
  for (std::size_t k = 0; k < times.size(); ++k) {
    if (times[k] != static_cast<double>(k) / 10.0) ++drifted;
  }
  EXPECT_GT(drifted, 0u);
}

TEST(OoMetricTest, CopiedFrontierExtendsAsOneFoldedFromScratch) {
  // A rollout's view: only the completed jobs, so the ids have gaps. A
  // frontier copied midway and then extended must read as one folded from
  // scratch, and both as sample_at() over the same gapped log; the source
  // of the copy must not move. Two logs: the completed jobs in completion
  // order, where job 2 (last to complete) holds a window of thousands open
  // at tolerance 0; and every job, each up to 63 places late in id order,
  // where the frontier keeps moving and drops its spent front as it goes.
  const auto same = [](const OoSample& a, const OoSample& b) {
    return a.max_in_order == b.max_in_order &&
           a.completed_count == b.completed_count &&
           std::memcmp(&a.ordered_mb, &b.ordered_mb, sizeof(double)) == 0;
  };
  const std::uint64_t n = 3000;
  const auto check = [&](const std::vector<JobOutcome>& log,
                         const std::string& label) {
    const std::size_t half = log.size() / 2;
    const std::vector<JobOutcome> first(log.begin(),
                                        log.begin() + static_cast<long>(half));
    OoFrontier whole;
    for (const JobOutcome& o : log) whole.fold(o.seq_id, o.output_mb);
    OoFrontier midway;
    for (const JobOutcome& o : first) midway.fold(o.seq_id, o.output_mb);
    OoFrontier extended = midway;
    for (std::size_t i = half; i < log.size(); ++i) {
      extended.fold(log[i].seq_id, log[i].output_mb);
    }
    EXPECT_EQ(midway.count(), half) << label;
    EXPECT_EQ(extended.count(), log.size()) << label;
    EXPECT_EQ(extended.frontier(), whole.frontier()) << label;

    const OoMetricCalculator all(log);
    const OoMetricCalculator part(first);
    const double end = std::numeric_limits<double>::infinity();
    for (const std::uint64_t tol : {std::uint64_t{0}, std::uint64_t{1},
                                    std::uint64_t{4}, n}) {
      EXPECT_TRUE(same(extended.ordered(tol), whole.ordered(tol)))
          << label << " tol " << tol;
      EXPECT_TRUE(same(whole.ordered(tol), all.sample_at(end, tol)))
          << label << " tol " << tol;
      EXPECT_TRUE(same(midway.ordered(tol), part.sample_at(end, tol)))
          << label << " tol " << tol;
    }
    return midway;
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<JobOutcome> outcomes = sweep_outcomes(seed, n);
    const std::string label = "seed " + std::to_string(seed);

    std::vector<JobOutcome> log = outcomes;
    std::erase_if(log, [](const JobOutcome& o) { return o.completed <= 0.0; });
    std::ranges::stable_sort(log, {}, &JobOutcome::completed);
    const OoFrontier midway = check(log, label + " completion order");
    // Job 2 is still out at the copy, ids past n/2 are in: a wide window.
    EXPECT_LE(midway.frontier(), 2u) << label;
    EXPECT_GT(midway.ordered(n).max_in_order, n / 2) << label;

    log = outcomes;
    for (JobOutcome& o : log) o.completed = 1.0;
    std::ranges::stable_sort(log, {}, [](const JobOutcome& o) {
      return o.seq_id + (o.seq_id * 0x9E3779B97F4A7C15ULL >> 58);
    });
    EXPECT_GT(check(log, label + " near id order").frontier(), n / 4) << label;
  }
}

// ---- makespan / speedup / utilization / burst (Eq. 7-12) --------------------

TEST(MetricsTest, MakespanSpansArrivalToLastCompletion) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 50.0, 1.0, Placement::kInternal, 0, 10.0),
      outcome(2, 90.0, 1.0, Placement::kInternal, 0, 20.0)};
  EXPECT_DOUBLE_EQ(makespan(outcomes), 80.0);
}

TEST(MetricsTest, MakespanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(makespan({}), 0.0);
}

TEST(MetricsTest, SpeedupIsSequentialOverMakespan) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 10.0, 1.0, Placement::kInternal, 0, 0.0, 30.0),
      outcome(2, 20.0, 1.0, Placement::kInternal, 0, 0.0, 50.0)};
  EXPECT_DOUBLE_EQ(sequential_time(outcomes), 80.0);
  EXPECT_DOUBLE_EQ(speedup(outcomes), 4.0);
}

TEST(MetricsTest, UtilizationFormulas) {
  EXPECT_DOUBLE_EQ(set_utilization(160.0, 2, 100.0), 0.8);
  EXPECT_DOUBLE_EQ(set_utilization(0.0, 4, 100.0), 0.0);
}

TEST(MetricsTest, BurstRatioPerBatchAndOverall) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 1.0, 1.0, Placement::kInternal, 0),
      outcome(2, 1.0, 1.0, Placement::kExternal, 0),
      outcome(3, 1.0, 1.0, Placement::kExternal, 1),
      outcome(4, 1.0, 1.0, Placement::kExternal, 1),
      outcome(5, 1.0, 1.0, Placement::kInternal, 1),
  };
  // Eq. 11 is Eq. 12 over one batch's outcomes.
  const std::vector<JobOutcome> batch0(outcomes.begin(), outcomes.begin() + 2);
  const std::vector<JobOutcome> batch1(outcomes.begin() + 2, outcomes.end());
  EXPECT_DOUBLE_EQ(burst_ratio(batch0), 0.5);
  EXPECT_NEAR(burst_ratio(batch1), 2.0 / 3.0, 1e-12);
  // Eq. 12 reduces to total bursted / total jobs.
  EXPECT_DOUBLE_EQ(burst_ratio(outcomes), 3.0 / 5.0);
}

TEST(MetricsTest, MeanTurnaround) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 30.0, 1.0, Placement::kInternal, 0, 10.0),
      outcome(2, 50.0, 1.0, Placement::kInternal, 0, 10.0)};
  EXPECT_DOUBLE_EQ(mean_turnaround(outcomes), 30.0);
}

// ---- orderliness ------------------------------------------------------------

TEST(OrderlinessTest, PerfectOrderHasNoInversions) {
  std::vector<JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    outcomes.push_back(outcome(i, static_cast<double>(i * 10)));
  }
  const auto stats = compute_orderliness(outcomes, 100.0);
  EXPECT_EQ(stats.inversions, 0u);
  EXPECT_DOUBLE_EQ(stats.max_frontier_push, 10.0);
  EXPECT_EQ(stats.pushes_over_threshold, 0u);
}

TEST(OrderlinessTest, CountsInversionsExactly) {
  // Completion order by seq: 30, 10, 20 -> pairs (1,2), (1,3) inverted.
  std::vector<JobOutcome> outcomes = {outcome(1, 30.0), outcome(2, 10.0),
                                      outcome(3, 20.0)};
  const auto stats = compute_orderliness(outcomes, 1000.0);
  EXPECT_EQ(stats.inversions, 2u);
}

TEST(OrderlinessTest, LateJobIsATallPeak) {
  std::vector<JobOutcome> outcomes = {outcome(1, 10.0), outcome(2, 500.0),
                                      outcome(3, 20.0), outcome(4, 30.0)};
  const auto stats = compute_orderliness(outcomes, 120.0);
  EXPECT_DOUBLE_EQ(stats.max_frontier_push, 490.0);
  EXPECT_EQ(stats.pushes_over_threshold, 1u);
}

// ---- validation & report -------------------------------------------------

TEST(ValidateTest, AcceptsWellFormedOutcomes) {
  std::vector<JobOutcome> outcomes = {outcome(2, 5.0), outcome(1, 3.0)};
  EXPECT_EQ(validate_outcomes(outcomes), "");
}

TEST(ValidateTest, DetectsMissingAndDuplicateIds) {
  std::vector<JobOutcome> outcomes = {outcome(1, 5.0), outcome(1, 3.0)};
  const std::string err = validate_outcomes(outcomes);
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  EXPECT_NE(err.find("missing"), std::string::npos);
}

TEST(ValidateTest, DetectsTimeTravel) {
  JobOutcome o = outcome(1, 5.0);
  o.arrival = 10.0;  // completed before arrival
  const std::string err = validate_outcomes({o});
  EXPECT_NE(err.find("before arrival"), std::string::npos);
}

TEST(ValidateTest, DetectsOutOfRangeSeq) {
  const std::string err = validate_outcomes({outcome(7, 5.0)});
  EXPECT_NE(err.find("outside"), std::string::npos);
}

TEST(ReportTest, BuildComputesHeadlineNumbers) {
  std::vector<JobOutcome> outcomes = {
      outcome(1, 50.0, 20.0, Placement::kInternal, 0, 0.0, 40.0),
      outcome(2, 100.0, 30.0, Placement::kExternal, 0, 0.0, 60.0)};
  const SlaReport r = build_report("op", "uniform", outcomes,
                                   /*ic busy*/ 160.0, /*ic machines*/ 2,
                                   /*ec busy*/ 50.0, /*ec machines*/ 1,
                                   /*oo interval*/ 10.0, /*tolerance*/ 0);
  EXPECT_EQ(r.job_count, 2u);
  EXPECT_DOUBLE_EQ(r.makespan_seconds, 100.0);
  EXPECT_DOUBLE_EQ(r.speedup, 1.0);
  EXPECT_DOUBLE_EQ(r.ic_utilization, 0.8);
  EXPECT_DOUBLE_EQ(r.ec_utilization, 0.5);
  EXPECT_DOUBLE_EQ(r.burst_ratio, 0.5);
  EXPECT_DOUBLE_EQ(r.oo_final_mb, 50.0);
  EXPECT_GT(r.oo_time_averaged_mb, 0.0);
}

TEST(ReportTest, PrebuiltSeriesGivesTheSameReport) {
  const std::vector<JobOutcome> outcomes = {
      outcome(1, 50.0, 20.0, Placement::kInternal, 0, 0.0, 40.0),
      outcome(2, 100.0, 30.0, Placement::kExternal, 0, 0.0, 60.0),
      outcome(3, 75.0, 10.0, Placement::kInternal, 0, 0.0, 25.0)};
  const SlaReport a = build_report("op", "uniform", outcomes, 160.0, 2, 50.0,
                                   1, /*oo interval*/ 10.0, /*tolerance*/ 1);
  const SlaReport b = build_report(
      "op", "uniform", outcomes, 160.0, 2, 50.0, 1,
      OoMetricCalculator(outcomes).ordered_mb_series(10.0, 1), 1);
  EXPECT_EQ(a.oo_final_mb, b.oo_final_mb);
  EXPECT_EQ(a.oo_time_averaged_mb, b.oo_time_averaged_mb);
  EXPECT_EQ(format_table({a}), format_table({b}));
}

TEST(ReportTest, FormatTableContainsAllRows) {
  SlaReport a;
  a.scheduler = "greedy";
  a.bucket = "large";
  SlaReport b;
  b.scheduler = "op";
  b.bucket = "uniform";
  const std::string table = format_table({a, b});
  EXPECT_NE(table.find("greedy"), std::string::npos);
  EXPECT_NE(table.find("uniform"), std::string::npos);
  EXPECT_NE(table.find("scheduler"), std::string::npos);
}

}  // namespace
