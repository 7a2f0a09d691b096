// The paper's economic motivation, quantified: §I argues dedicated
// processing/network resources are cost-prohibitive and that hybrid clouds
// let remote computation "be scaled down during periods of low demand
// without incurring processing or more importantly, bandwidth costs".
// This bench prices every scheduler's run (2010 EC2/S3-class rates) and
// scores the §I ticket SLA, then compares static vs elastic EC
// provisioning.
//
// Flags: --seeds a,b,c --threads N. The scheduler grid and the
// provisioning variants each form one experiment plan; the ticket-scale
// section reuses the grid's runs (same scenarios, no re-simulation).
#include <cstdio>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "sla/cost.hpp"
#include "sla/tickets.hpp"
#include "stats/aggregate.hpp"

int main(int argc, char** argv) try {
  using namespace cbs;
  using harness::RunResult;
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  const std::vector<std::uint64_t> seeds =
      harness::cli::seeds_from_args(args, {42, 7, 1337});
  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);

  std::printf("=== economics: cost and ticket SLA per scheduler ===\n");
  std::printf("(large bucket, %zu seeds; cloud cost = EC machine-hours + "
              "transfer + staging)\n\n",
              seeds.size());

  const harness::ExperimentPlan plan = harness::ExperimentPlan::grid(
      seeds,
      {core::SchedulerKind::kIcOnly, core::SchedulerKind::kGreedy,
       core::SchedulerKind::kOrderPreserving,
       core::SchedulerKind::kBandwidthSplit},
      {workload::SizeBucket::kLargeBiased});
  const auto results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  const auto makespan = harness::reduce_over_seeds(
      plan, results,
      [](const RunResult& r) { return r.report.makespan_seconds; });
  const auto cloud = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.cost.cloud_total(); });
  const auto per_gb = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) {
        return sla::cloud_cost_per_output_mb(r.cost, r.outcomes) * 1000.0;
      });
  const auto hit = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.tickets.hit_rate; });
  const auto late = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) { return r.tickets.p95_lateness; });

  harness::TextTable table({"scheduler", "makespan", "cloud cost",
                            "cost/GB out", "ticket hit", "p95 late"});
  for (std::size_t k = 0; k < plan.schedulers.size(); ++k) {
    table.row()
        .cell(core::to_string(plan.schedulers[k]))
        .num(makespan.cell(0, k).mean(), 0, "s")
        .num(cloud.cell(0, k).mean(), 3)
        .num(per_gb.cell(0, k).mean(), 3)
        .num(hit.cell(0, k).mean() * 100.0, 0, "%")
        .num(late.cell(0, k).mean(), 0, "s");
  }
  table.print();

  std::printf("\n=== static vs elastic EC provisioning (Op, large bucket) ===\n\n");
  const char* kStatic = "static (2 VMs)";
  const char* kElastic = "elastic (1..4 VMs)";
  std::vector<harness::Scenario> variants;
  for (const std::uint64_t seed : seeds) {
    harness::Scenario s = harness::make_scenario(
        core::SchedulerKind::kOrderPreserving,
        workload::SizeBucket::kLargeBiased, seed);
    s.name = kStatic;
    variants.push_back(s);

    s.elastic_ec = {.enabled = true, .max_machines = 4};
    s.ec_sites[0].machines = 1;  // start small, grow on demand
    s.name = kElastic;
    variants.push_back(s);
  }
  const auto prov_results =
      harness::run_plan(harness::ExperimentPlan::list(std::move(variants)),
                        opts);
  if (harness::report_failed_cells(prov_results) != 0) return 1;

  const auto p_makespan = harness::group_by_name(
      prov_results,
      [](const RunResult& r) { return r.report.makespan_seconds; });
  const auto p_cloud = harness::group_by_name(
      prov_results, [](const RunResult& r) { return r.cost.cloud_total(); });
  const auto p_hours = harness::group_by_name(
      prov_results, [](const RunResult& r) {
        return r.cost.ec_compute / sla::CostRates{}.ec_machine_hour;
      });
  const auto p_hit = harness::group_by_name(
      prov_results, [](const RunResult& r) { return r.tickets.hit_rate; });

  harness::TextTable prov({"provisioning", "makespan", "cloud cost",
                           "EC mach-hours", "ticket hit"});
  for (const char* v : {kStatic, kElastic}) {
    prov.row()
        .cell(v)
        .num(p_makespan.at(v).mean(), 0, "s")
        .num(p_cloud.at(v).mean(), 3)
        .num(p_hours.at(v).mean(), 2)
        .num(p_hit.at(v).mean() * 100.0, 0, "%");
  }
  prov.print();

  // The ticket-scale section reuses the scheduler grid above: the scenarios
  // are identical, so no extra simulations are needed.
  std::printf("\n=== what ticket can the shop sell? ===\n");
  std::printf("(tightest uniform scaling of the {600s + 4s/MB} promise that\n"
              " each scheduler meets at a 95%% hit rate, large bucket)\n\n");
  const auto scale = harness::reduce_over_seeds(
      plan, results, [](const RunResult& r) {
        return sla::tightest_ticket_scale(r.outcomes, r.scenario.ticket_policy,
                                          0.95);
      });
  for (const auto kind :
       {core::SchedulerKind::kIcOnly, core::SchedulerKind::kOrderPreserving}) {
    for (std::size_t k = 0; k < plan.schedulers.size(); ++k) {
      if (plan.schedulers[k] != kind) continue;
      std::printf("%-20s needs %.2fx the baseline promise\n",
                  std::string(core::to_string(kind)).c_str(),
                  scale.cell(0, k).mean());
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
