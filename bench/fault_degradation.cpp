// Fault-tolerance sweep: how gracefully does each burst scheduler degrade
// as the external cloud becomes less reliable? Four escalating fault
// levels (clean → EC crashes → EC+IC crashes → whole-EC outages with a
// probe blackout) are run for Greedy and Order Preserving under the
// retraction recovery policy. The paper's §IV.D argues Op's conservatism
// pays off exactly when estimates break — faults are the extreme case.
//
// Invariants exercised on every run (run_scenario throws otherwise): no
// job is lost and each completes exactly once, crashes or not.
//
// With --hazard-predictor=ewma|bayes the sweep becomes a predictor-on/off
// matrix: every (level, scheduler, seed) cell runs twice — reactive-only
// and with the proactive resilience policy (pre-emptive drains, risk-priced
// bursting, DESIGN.md §13) — and the run gates on the degradation *slope*:
// the predictor-on arm must degrade strictly less steeply in both ticket
// lateness and wasted compute as faults escalate, and its predictor must
// have made at least one prediction (else that arm never acted). Zero lost
// jobs is still validated per run in both arms.
//
// Flags: --seeds a,b,c --threads N
//        --hazard-predictor off|ewma|bayes --drain-threshold
//        (proactive-resilience arm of the matrix; bayes predicts at
//        --drain-threshold 0.03, EXPERIMENTS.md)
//        --json PATH (machine-readable rows in perf_compare format)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "models/hazard.hpp"
#include "stats/aggregate.hpp"

namespace {

struct FaultLevel {
  const char* name;
  cbs::sim::FaultConfig faults;
};

std::vector<FaultLevel> fault_levels() {
  using cbs::sim::FaultConfig;
  using cbs::sim::OutageWindow;

  FaultConfig clean;  // level 0: fault-free reference

  FaultConfig crash_lo;  // level 1: occasional EC instance loss
  crash_lo.ec_vm_mtbf = 4000.0;
  crash_lo.retraction_deadline_factor = 3.0;

  FaultConfig crash_hi = crash_lo;  // level 2: both clouds lose machines
  crash_hi.ec_vm_mtbf = 1200.0;
  crash_hi.ic_vm_mtbf = 6000.0;

  FaultConfig outage = crash_hi;  // level 3: EC unreachable windows too
  outage.outage_windows = {OutageWindow{400.0, 240.0},
                           OutageWindow{1100.0, 300.0}};
  outage.probe_blackout = {OutageWindow{300.0, 600.0}};

  return {{"L0-clean", clean},
          {"L1-ec-crashes", crash_lo},
          {"L2-crashes", crash_hi},
          {"L3-outages", outage}};
}

/// One arm of the matrix: reactive-only ("" suffix) or predictor-on.
struct Arm {
  std::string suffix;  ///< appended to the cell name, e.g. "+ewma"
  cbs::core::ResilienceConfig resilience;
};

/// Ticket lateness summed over a run's outcomes — the SLA-degradation
/// metric the slope gate tracks (same definition as the lookahead score).
double total_lateness(const cbs::harness::RunResult& r) {
  double lateness = 0.0;
  for (const auto& o : r.outcomes) {
    lateness += r.scenario.ticket_policy.lateness(o);
  }
  return lateness;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cbs;
  using core::SchedulerKind;

  std::vector<std::string> flags = harness::cli::scenario_flags();
  flags.emplace_back("json");
  const harness::cli::Args args(argc, argv, flags);
  const std::vector<std::uint64_t> seeds =
      harness::cli::seeds_from_args(args, {42, 7, 1337});

  core::ResilienceConfig resilience;
  resilience.hazard.kind = harness::cli::parse_hazard_predictor(
      args.get_or("hazard-predictor", "off"));
  resilience.drain_threshold =
      args.get_double_or("drain-threshold", resilience.drain_threshold);
  const bool matrix = resilience.enabled();

  std::vector<Arm> arms = {{"", core::ResilienceConfig{}}};
  if (matrix) {
    arms.push_back(
        {"+" + std::string(models::to_string(resilience.hazard.kind)),
         resilience});
  }

  const std::vector<SchedulerKind> schedulers = {
      SchedulerKind::kGreedy, SchedulerKind::kOrderPreserving};
  const auto levels = fault_levels();

  std::vector<harness::Scenario> scenarios;
  for (const std::uint64_t seed : seeds) {
    for (const auto& level : levels) {
      for (const SchedulerKind scheduler : schedulers) {
        for (const Arm& arm : arms) {
          harness::Scenario s = harness::make_scenario(
              scheduler, workload::SizeBucket::kLargeBiased, seed);
          s.faults = level.faults;
          s.resilience = arm.resilience;
          // Outage begin/end warnings are expected here; keep output clean.
          s.log_threshold = cbs::sim::LogLevel::kError;
          s.name = std::string(level.name) + "/" +
                   std::string(core::to_string(scheduler)) + arm.suffix;
          scenarios.push_back(std::move(s));
        }
      }
    }
  }
  const harness::ExperimentPlan plan =
      harness::ExperimentPlan::list(std::move(scenarios));

  std::printf(
      "=== Fault degradation: SLA under escalating faults (%zu seeds) ===\n\n",
      seeds.size());

  harness::RunnerOptions opts;
  opts.threads = harness::cli::threads_from_args(args);
  const auto results = harness::run_plan(plan, opts);
  if (harness::report_failed_cells(results) != 0) return 1;

  const auto makespan = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return r.report.makespan_seconds;
      });
  const auto oo = harness::group_by_name(results, [](const harness::RunResult& r) {
    return r.report.oo_time_averaged_mb;
  });
  const auto crashes = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return static_cast<double>(r.faults.ic_crashes + r.faults.ec_crashes);
      });
  const auto retractions = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return static_cast<double>(r.faults.retractions);
      });
  const auto reexec = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return static_cast<double>(r.faults.reexecutions);
      });
  const auto wasted_mb = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return r.faults.wasted_transfer_bytes / 1.0e6;
      });
  const auto lateness = harness::group_by_name(results, total_lateness);
  const auto wasted_compute = harness::group_by_name(
      results, [](const harness::RunResult& r) {
        return r.faults.wasted_compute_seconds;
      });

  harness::TextTable table({"level/scheduler", "makespan", "oo", "crashes",
                            "retract", "re-exec", "wasted-MB"});
  for (const std::string& key : makespan.keys()) {
    table.row()
        .cell(key)
        .num(makespan.at(key).mean(), 1, "s")
        .num(oo.at(key).mean(), 1, "MB")
        .num(crashes.at(key).mean(), 1)
        .num(retractions.at(key).mean(), 1)
        .num(reexec.at(key).mean(), 1)
        .num(wasted_mb.at(key).mean(), 1);
  }
  table.print();

  const auto group_key = [&](std::size_t level, std::size_t k,
                             const std::string& suffix = "") {
    return std::string(levels[level].name) + "/" +
           std::string(core::to_string(schedulers[k])) + suffix;
  };

  // Shape checks. Every completed cell already proved "no job lost" (the
  // runner validates outcome conservation), so the properties left are
  // monotone degradation and active recovery machinery.
  bool monotone = true;
  for (std::size_t k = 0; k < schedulers.size(); ++k) {
    double prev = 0.0;
    for (std::size_t level = 0; level < levels.size(); ++level) {
      const double mean = makespan.at(group_key(level, k)).mean();
      // Tolerate sub-1% inversions: fault levels perturb event interleaving
      // slightly even where the injected faults barely bind.
      if (mean < prev * 0.99) monotone = false;
      prev = mean > prev ? mean : prev;
    }
  }
  double faulted_retractions = 0.0;
  double faulted_reexec = 0.0;
  for (std::size_t level = 1; level < levels.size(); ++level) {
    for (std::size_t k = 0; k < schedulers.size(); ++k) {
      faulted_retractions += retractions.at(group_key(level, k)).mean();
      faulted_reexec += reexec.at(group_key(level, k)).mean();
    }
  }

  std::printf("\nshape checks:\n");
  std::printf("  no job lost at any level:      yes (validated per run)\n");
  std::printf("  makespan monotone with faults: %s\n", monotone ? "yes" : "NO");
  std::printf("  recovery active (retractions): %s\n",
              faulted_retractions > 0.0 ? "yes" : "NO");
  std::printf("  crash re-executions observed:  %s\n",
              faulted_reexec > 0.0 ? "yes" : "NO");

  bool flatter = true;
  if (matrix) {
    // Degradation slope of one arm: how much a metric worsens, summed over
    // the faulted levels, relative to that arm's own clean baseline and
    // pooled over schedulers. The proactive arm wins when both its SLA
    // (lateness) and its wasted-compute slopes are strictly flatter.
    const auto slope = [&](const auto& metric, const std::string& suffix) {
      double total = 0.0;
      for (std::size_t k = 0; k < schedulers.size(); ++k) {
        const double base = metric.at(group_key(0, k, suffix)).mean();
        for (std::size_t level = 1; level < levels.size(); ++level) {
          total += metric.at(group_key(level, k, suffix)).mean() - base;
        }
      }
      return total;
    };
    const std::string& on = arms[1].suffix;
    const double lat_off = slope(lateness, "");
    const double lat_on = slope(lateness, on);
    const double waste_off = slope(wasted_compute, "");
    const double waste_on = slope(wasted_compute, on);

    // Predictor activity and quality, pooled over the on-arm cells.
    std::uint64_t drains = 0, absorbed = 0;
    cbs::models::HazardPredictionStats hazard;
    double checkpointed = 0.0;
    for (const auto& r : results) {
      if (r.cell.scenario.name.find(on) == std::string::npos) continue;
      drains += r.result->faults.drains;
      hazard += r.result->faults.hazard;
      absorbed += r.result->faults.idle_crashes_absorbed;
      checkpointed += r.result->faults.checkpointed_compute_seconds;
    }

    std::printf("\npredictor matrix (%s):\n", on.c_str() + 1);
    std::printf("  drains=%llu preemptive-checkpoint=%.1fs"
                " idle-crashes-absorbed=%llu\n",
                static_cast<unsigned long long>(drains), checkpointed,
                static_cast<unsigned long long>(absorbed));
    std::printf("  predictions=%llu precision=%.2f recall=%.2f\n",
                static_cast<unsigned long long>(hazard.predictions),
                hazard.precision(), hazard.recall());
    std::printf("  lateness slope:       off=%.1fs on=%.1fs  %s\n", lat_off,
                lat_on, lat_on < lat_off ? "flatter" : "NOT flatter");
    std::printf("  wasted-compute slope: off=%.1fs on=%.1fs  %s\n", waste_off,
                waste_on, waste_on < waste_off ? "flatter" : "NOT flatter");
    // A predictor that never predicted never acted, so its arm is the
    // reactive arm up to event order, and a slope difference between the
    // two proves nothing about prediction.
    const bool predicted = hazard.predictions > 0;
    flatter = predicted && lat_on < lat_off && waste_on < waste_off;
    std::printf("  degradation gate:     %s\n", flatter ? "PASS" : "FAIL");
    if (!predicted) {
      std::fprintf(stderr,
                   "degradation gate: FAIL: the %s predictor made 0 "
                   "predictions, so its arm never acted\n",
                   on.c_str() + 1);
    }
  }

  if (const auto json_path = args.get("json")) {
    // perf_compare value rows, so CI pins every cell of the matrix against
    // a committed baseline in both directions (simulated quantities, not
    // times: a drop fails the gate as a rise does).
    std::FILE* f = std::fopen(json_path->c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path->c_str());
      return 2;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    bool first = true;
    for (const std::string& key : makespan.keys()) {
      const auto row = [&](const char* metric, double value) {
        if (value <= 0.0) return;  // comparator drops non-positive entries
        std::fprintf(f, "%s    {\"name\": \"FD_%s/%s\", \"value\": %.1f}",
                     first ? "" : ",\n", metric, key.c_str(), value);
        first = false;
      };
      row("makespan", makespan.at(key).mean());
      row("oo", oo.at(key).mean());
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

  return monotone && faulted_reexec > 0.0 && flatter ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
