#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "sla/cost.hpp"
#include "sla/tickets.hpp"

namespace {

using namespace cbs::sla;

JobOutcome outcome(std::uint64_t seq, double arrival, double completed,
                   double input_mb) {
  JobOutcome o;
  o.seq_id = seq;
  o.doc_id = seq;
  o.arrival = arrival;
  o.completed = completed;
  o.input_mb = input_mb;
  o.output_mb = input_mb;
  o.true_service_seconds = 1.0;
  return o;
}

// ---- tickets --------------------------------------------------------------

TEST(TicketTest, DeadlineFormula) {
  const TicketPolicy policy{.base_seconds = 100.0, .seconds_per_mb = 2.0};
  const JobOutcome o = outcome(1, 50.0, 0.0, 30.0);
  EXPECT_DOUBLE_EQ(policy.deadline_for(o), 50.0 + 100.0 + 60.0);
}

TEST(TicketTest, CountsHitsAndLateness) {
  const TicketPolicy policy{.base_seconds = 100.0, .seconds_per_mb = 0.0};
  std::vector<JobOutcome> outcomes = {
      outcome(1, 0.0, 50.0, 1.0),    // met with 50 s to spare
      outcome(2, 0.0, 100.0, 1.0),   // met exactly
      outcome(3, 0.0, 180.0, 1.0),   // 80 s late
      outcome(4, 0.0, 300.0, 1.0),   // 200 s late
  };
  const TicketReport r = evaluate_tickets(outcomes, policy);
  EXPECT_EQ(r.jobs, 4u);
  EXPECT_EQ(r.met, 2u);
  EXPECT_DOUBLE_EQ(r.hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(r.max_lateness, 200.0);
  EXPECT_DOUBLE_EQ(r.mean_lateness, 140.0);
  EXPECT_DOUBLE_EQ(r.mean_slack_left, 25.0);
}

TEST(TicketTest, P95LatenessIsTheSortedOrderStatistic) {
  // Latenesses 1..n s in a scrambled order: p95 is the element a full sort
  // puts at floor(0.95 (n - 1)), whatever the input order.
  const TicketPolicy policy{.base_seconds = 100.0, .seconds_per_mb = 0.0};
  for (const std::uint64_t n : {1u, 2u, 20u, 21u, 101u}) {
    std::vector<JobOutcome> outcomes;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t late = (i * 37 + 11) % n + 1;  // a permutation
      outcomes.push_back(
          outcome(i + 1, 0.0, 100.0 + static_cast<double>(late), 1.0));
    }
    outcomes.push_back(outcome(n + 1, 0.0, 40.0, 1.0));  // met: not counted
    const TicketReport r = evaluate_tickets(outcomes, policy);
    const auto rank = static_cast<std::uint64_t>(
        0.95 * static_cast<double>(n - 1));
    EXPECT_EQ(r.p95_lateness, static_cast<double>(rank + 1)) << n;
  }
}

TEST(TicketTest, EmptyRunIsSafe) {
  const TicketReport r = evaluate_tickets({}, TicketPolicy{});
  EXPECT_EQ(r.jobs, 0u);
  EXPECT_DOUBLE_EQ(r.hit_rate, 0.0);
}

TEST(TicketTest, TightestScaleBoundsTurnaround) {
  const TicketPolicy policy{.base_seconds = 100.0, .seconds_per_mb = 0.0};
  std::vector<JobOutcome> outcomes = {
      outcome(1, 0.0, 50.0, 1.0),   // needs scale 0.5
      outcome(2, 0.0, 150.0, 1.0),  // needs scale 1.5
      outcome(3, 0.0, 250.0, 1.0),  // needs scale 2.5
      outcome(4, 0.0, 400.0, 1.0),  // needs scale 4.0
  };
  EXPECT_DOUBLE_EQ(tightest_ticket_scale(outcomes, policy, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(tightest_ticket_scale(outcomes, policy, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(tightest_ticket_scale(outcomes, policy, 0.25), 0.5);
}

TEST(TicketTest, ScaledPolicyAchievesTarget) {
  const TicketPolicy policy{.base_seconds = 60.0, .seconds_per_mb = 1.0};
  std::vector<JobOutcome> outcomes;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    outcomes.push_back(outcome(i, 10.0 * static_cast<double>(i),
                               10.0 * static_cast<double>(i) +
                                   5.0 * static_cast<double>(i % 40),
                               static_cast<double>(i % 30) + 1.0));
  }
  const double scale = tightest_ticket_scale(outcomes, policy, 0.9);
  TicketPolicy scaled{.base_seconds = policy.base_seconds * scale,
                      .seconds_per_mb = policy.seconds_per_mb * scale};
  const TicketReport r = evaluate_tickets(outcomes, scaled);
  EXPECT_GE(r.hit_rate, 0.9);
}

// ---- cost -------------------------------------------------------------------

TEST(CostTest, ItemizedBill) {
  CostInputs in;
  in.ec_provisioned_machine_seconds = 2.0 * 3600.0;  // 2 machine-hours
  in.uplink_bytes = 10.0e9;                          // 10 GB out
  in.downlink_bytes = 5.0e9;                         // 5 GB back
  in.store_byte_seconds = 1.0e9 * 30.0 * 86400.0;    // 1 GB-month
  in.ic_machine_seconds = 10.0 * 3600.0;
  const CostReport r = compute_cost(in);
  EXPECT_NEAR(r.ec_compute, 0.20, 1e-9);
  EXPECT_NEAR(r.egress, 1.50, 1e-9);
  EXPECT_NEAR(r.ingress, 0.50, 1e-9);
  EXPECT_NEAR(r.storage, 0.15, 1e-9);
  EXPECT_NEAR(r.ic_amortized, 0.40, 1e-9);
  EXPECT_NEAR(r.cloud_total(), 2.35, 1e-9);
  EXPECT_NEAR(r.grand_total(), 2.75, 1e-9);
}

TEST(CostTest, ZeroUsageIsFree) {
  const CostReport r = compute_cost(CostInputs{});
  EXPECT_DOUBLE_EQ(r.grand_total(), 0.0);
}

TEST(CostTest, CostPerOutputMb) {
  CostReport r;
  r.egress = 2.0;
  r.ingress = 1.0;
  std::vector<JobOutcome> outcomes = {outcome(1, 0.0, 1.0, 100.0),
                                      outcome(2, 0.0, 1.0, 200.0)};
  EXPECT_DOUBLE_EQ(cloud_cost_per_output_mb(r, outcomes), 3.0 / 300.0);
}

TEST(CostTest, ToStringMentionsComponents) {
  CostReport r;
  r.ec_compute = 1.0;
  const std::string s = r.to_string();
  EXPECT_NE(s.find("EC compute"), std::string::npos);
  EXPECT_NE(s.find("grand"), std::string::npos);
}

// ---- harness integration ------------------------------------------------------

TEST(EconomicsIntegrationTest, RunResultCarriesTicketsAndCost) {
  auto s = cbs::harness::make_scenario(cbs::core::SchedulerKind::kGreedy,
                                       cbs::workload::SizeBucket::kUniform);
  s.num_batches = 3;
  const auto r = cbs::harness::run_scenario(s);
  EXPECT_EQ(r.tickets.jobs, r.outcomes.size());
  EXPECT_GT(r.tickets.hit_rate, 0.0);
  // A bursting run moved bytes and rented EC machines: the bill is nonzero.
  EXPECT_GT(r.cost.grand_total(), 0.0);
  EXPECT_GT(r.cost.ic_amortized, 0.0);
  if (r.report.burst_ratio > 0.0) {
    EXPECT_GT(r.cost.egress, 0.0);
    EXPECT_GT(r.cost.ingress, 0.0);
    EXPECT_GT(r.cost.storage, 0.0);
  }
}

TEST(EconomicsIntegrationTest, IcOnlyHasNoCloudCost) {
  auto s = cbs::harness::make_scenario(cbs::core::SchedulerKind::kIcOnly,
                                       cbs::workload::SizeBucket::kUniform);
  s.num_batches = 2;
  auto result = cbs::harness::run_scenario(s);
  // Probes still move a little data; compute and storage must be untouched.
  EXPECT_DOUBLE_EQ(result.cost.storage, 0.0);
  EXPECT_LT(result.cost.egress, 0.01);  // only 1 MB probes
}

}  // namespace
