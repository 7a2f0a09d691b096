// cloudburst_sim — run one cloud-bursting scenario from the command line
// and print the full SLA/economics report, optionally emitting CSV series.
//
//   cloudburst_sim --scheduler=order-preserving --bucket=large --seed=7
//   cloudburst_sim --scheduler=greedy --high-var --csv=oo > oo.csv
//   cloudburst_sim --elastic --batches=12 --lambda=20 --csv=completion
//
// Flags: --scheduler (ic-only|greedy|order-preserving|op-bandwidth-split|
//                     random|lookahead)
//        --bucket (small|uniform|large)   --seed N       --batches N
//        --lambda J/batch   --interval s  --high-var     --rescheduler
//        --elastic          --estimator (qrsm|oracle|per-class)
//        --tolerance t_l    --oo-interval s   --noise sigma
//        --ic-mtbf s  --ec-mtbf s  --vm-recovery s  --retraction-factor f
//        --hazard-predictor (off|ewma|bayes)  --drain-threshold p
//                                       (proactive resilience)
//        --horizon s  --candidates N   (scheduler=lookahead rollouts;
//                                       N in [1, 3])
//        --csv (report|completion|oo)
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "sla/metrics.hpp"
#include "sla/report.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: cloudburst_sim [--scheduler S] [--bucket B] [--seed N]\n"
      "                      [--batches N] [--lambda J] [--interval s]\n"
      "                      [--high-var] [--rescheduler] [--elastic]\n"
      "                      [--estimator qrsm|oracle|per-class]\n"
      "                      [--tolerance t] [--oo-interval s] [--noise sig]\n"
      "                      [--ic-mtbf s] [--ec-mtbf s] [--vm-recovery s]\n"
      "                      [--retraction-factor f]\n"
      "                      [--hazard-predictor off|ewma|bayes]\n"
      "                      [--drain-threshold p]\n"
      "                      [--horizon s] [--candidates 1|2|3]\n"
      "                      [--csv report|completion|oo]\n"
      "schedulers: ic-only greedy order-preserving op-bandwidth-split\n"
      "            random lookahead\n"
      "buckets:    small uniform large\n");
}

/// scenario_flags() without the sweep flags: one run takes one seed.
std::vector<std::string> run_flags() {
  std::vector<std::string> flags = cbs::harness::cli::scenario_flags();
  std::erase(flags, "seeds");
  std::erase(flags, "threads");
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cbs;
  try {
    const harness::cli::Args args(argc, argv, run_flags());
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    const harness::Scenario scenario = harness::cli::scenario_from_args(args);
    const std::string csv = args.get_or("csv", "");
    if (!csv.empty() && csv != "completion" && csv != "oo" && csv != "report") {
      throw std::invalid_argument("unknown --csv mode: '" + csv + "'");
    }
    const harness::RunResult result = harness::run_scenario(scenario);

    if (csv == "completion") {
      harness::csv::write_completion_series(std::cout, result);
      return 0;
    }
    if (csv == "oo") {
      harness::csv::write_oo_series(std::cout, result);
      return 0;
    }
    if (csv == "report") {
      harness::csv::write_reports(std::cout, {result});
      return 0;
    }

    std::printf("scenario: %s (seed %llu, %zu batches)\n",
                scenario.name.c_str(),
                static_cast<unsigned long long>(scenario.seed),
                scenario.num_batches);
    std::printf("%s\n", sla::format_table({result.report}).c_str());
    const auto orderliness = sla::compute_orderliness(result.outcomes, 120.0);
    std::printf("ordering: %zu inversions, p95 frontier push %.1fs, "
                "max %.1fs\n",
                orderliness.inversions, orderliness.p95_frontier_push,
                orderliness.max_frontier_push);
    std::printf("tickets:  %.0f%% met (p95 lateness %.0fs, worst %.0fs)\n",
                result.tickets.hit_rate * 100.0, result.tickets.p95_lateness,
                result.tickets.max_lateness);
    std::printf("billing:  %s\n", result.cost.to_string().c_str());
    std::printf("engine:   %zu events, %.1f simulated minutes\n",
                result.events_processed, result.sim_end_time / 60.0);
    if (result.pull_backs + result.push_outs > 0) {
      std::printf("resched:  %zu pull-backs, %zu push-outs\n",
                  result.pull_backs, result.push_outs);
    }
    if (scenario.faults.enabled()) {
      std::printf("faults:   %llu crashes (%llu re-executions, %.0fs wasted), "
                  "%llu retractions, %llu outages, %.1f MB transfer lost\n",
                  static_cast<unsigned long long>(result.faults.ic_crashes +
                                                  result.faults.ec_crashes),
                  static_cast<unsigned long long>(result.faults.reexecutions),
                  result.faults.wasted_compute_seconds,
                  static_cast<unsigned long long>(result.faults.retractions),
                  static_cast<unsigned long long>(result.faults.outages),
                  result.faults.wasted_transfer_bytes / 1.0e6);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage();
    return 2;
  }
}
