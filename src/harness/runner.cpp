#include "harness/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "harness/task_pool.hpp"

namespace cbs::harness {

ExperimentPlan ExperimentPlan::grid(
    std::vector<std::uint64_t> grid_seeds,
    std::vector<cbs::core::SchedulerKind> grid_schedulers,
    std::vector<cbs::workload::SizeBucket> grid_buckets, Scenario grid_base) {
  ExperimentPlan plan;
  plan.base = std::move(grid_base);
  plan.seeds = std::move(grid_seeds);
  plan.schedulers = std::move(grid_schedulers);
  plan.buckets = std::move(grid_buckets);
  return plan;
}

ExperimentPlan ExperimentPlan::list(std::vector<Scenario> scenarios) {
  ExperimentPlan plan;
  plan.extra = std::move(scenarios);
  return plan;
}

std::vector<PlanCell> ExperimentPlan::cells() const {
  std::vector<PlanCell> out;
  out.reserve(cell_count());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      for (std::size_t k = 0; k < schedulers.size(); ++k) {
        PlanCell cell;
        cell.index = out.size();
        cell.seed_index = s;
        cell.bucket_index = b;
        cell.scheduler_index = k;
        Scenario sc = base;
        sc.seed = seeds[s];
        sc.bucket = buckets[b];
        sc.scheduler = schedulers[k];
        sc.name = std::string(cbs::core::to_string(schedulers[k])) + "/" +
                  std::string(cbs::workload::to_string(buckets[b]));
        if (sc.high_network_variation) sc.name += "/high-var";
        cell.scenario = std::move(sc);
        out.push_back(std::move(cell));
      }
    }
  }
  for (const Scenario& sc : extra) {
    PlanCell cell;
    cell.index = out.size();
    cell.scenario = sc;
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<CellResult> run_plan(const ExperimentPlan& plan,
                                 const RunnerOptions& options) {
  std::vector<PlanCell> cells = plan.cells();
  const std::size_t total = cells.size();
  std::vector<CellResult> results(total);
  if (total == 0) return results;

  std::function<RunResult(const Scenario&)> run = options.run;
  if (!run) run = [](const Scenario& s) { return run_scenario(s); };

  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, total);

  // Each cell writes only its own slot, so results land in plan order
  // whichever thread runs which cell.
  auto run_cell = [&](std::size_t i) {
    CellResult& slot = results[i];
    slot.cell = std::move(cells[i]);
    try {
      slot.result = run(slot.cell.scenario);
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
  };
  // The caller runs cells too; with one thread the pool is the plain
  // serial loop on the caller.
  TaskPool pool(threads - 1);
  pool.run(total, run_cell);
  return results;
}

std::size_t failed_cells(const std::vector<CellResult>& results) {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(),
                    [](const CellResult& r) { return !r.ok(); }));
}

std::size_t report_failed_cells(const std::vector<CellResult>& results) {
  for (const CellResult& r : results) {
    if (r.ok()) continue;
    std::fprintf(stderr, "cell %s (seed %llu) failed: %s\n",
                 r.cell.scenario.name.c_str(),
                 static_cast<unsigned long long>(r.cell.scenario.seed),
                 r.error.c_str());
  }
  return failed_cells(results);
}

stats::SummaryMatrix reduce_over_seeds(const ExperimentPlan& plan,
                                       const std::vector<CellResult>& results,
                                       const MetricFn& metric) {
  std::vector<std::string> rows;
  rows.reserve(plan.buckets.size());
  for (const auto b : plan.buckets) {
    rows.emplace_back(cbs::workload::to_string(b));
  }
  std::vector<std::string> cols;
  cols.reserve(plan.schedulers.size());
  for (const auto k : plan.schedulers) {
    cols.emplace_back(cbs::core::to_string(k));
  }
  stats::SummaryMatrix matrix(std::move(rows), std::move(cols));
  for (const CellResult& r : results) {
    if (!r.ok() || r.cell.bucket_index == PlanCell::kNoAxis) continue;
    matrix.add(r.cell.bucket_index, r.cell.scheduler_index, metric(*r.result));
  }
  return matrix;
}

stats::GroupedSummary group_by_name(const std::vector<CellResult>& results,
                                    const MetricFn& metric) {
  stats::GroupedSummary groups;
  for (const CellResult& r : results) {
    if (!r.ok()) continue;
    groups.add(r.cell.scenario.name, metric(*r.result));
  }
  return groups;
}

std::vector<RunResult> last_seed_results(
    const ExperimentPlan& plan, const std::vector<CellResult>& results) {
  std::vector<RunResult> out;
  if (plan.seeds.empty()) return out;
  const std::size_t last = plan.seeds.size() - 1;
  for (const CellResult& r : results) {
    if (r.ok() && r.cell.seed_index == last) out.push_back(*r.result);
  }
  return out;
}

}  // namespace cbs::harness
