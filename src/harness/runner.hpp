#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "stats/aggregate.hpp"

namespace cbs::harness {

/// One fully resolved cell of an ExperimentPlan. `index` is the cell's
/// position in deterministic plan order; `run_plan` always returns results
/// in this order, no matter which worker thread finished first.
struct PlanCell {
  static constexpr std::size_t kNoAxis = static_cast<std::size_t>(-1);

  std::size_t index = 0;
  Scenario scenario;
  /// Grid coordinates; kNoAxis for ad-hoc (`extra`) cells.
  std::size_t seed_index = kNoAxis;
  std::size_t bucket_index = kNoAxis;
  std::size_t scheduler_index = kNoAxis;
};

/// A declarative experiment sweep: the cartesian grid
/// seeds × buckets × schedulers stamped onto a base scenario, plus an
/// optional list of ad-hoc scenarios appended after the grid.
///
/// Cell order is seed-major, then bucket, then scheduler — all schedulers
/// of one (seed, bucket) pair are adjacent, which is exactly the paired
/// comparison order the serial benches used; `extra` cells follow in the
/// order given. Every figure in the paper is an average over such a grid,
/// so this is the unit the parallel runner executes.
struct ExperimentPlan {
  Scenario base{};
  std::vector<std::uint64_t> seeds;
  std::vector<cbs::core::SchedulerKind> schedulers;
  std::vector<cbs::workload::SizeBucket> buckets;

  /// Ad-hoc scenarios appended verbatim after the grid.
  std::vector<Scenario> extra;

  /// Grid plan: every seed × bucket × scheduler combination on `base`.
  [[nodiscard]] static ExperimentPlan grid(
      std::vector<std::uint64_t> seeds,
      std::vector<cbs::core::SchedulerKind> schedulers,
      std::vector<cbs::workload::SizeBucket> buckets, Scenario base = {});

  /// Pure list plan: the given scenarios, no grid.
  [[nodiscard]] static ExperimentPlan list(std::vector<Scenario> scenarios);

  /// Materializes the deterministic cell list.
  [[nodiscard]] std::vector<PlanCell> cells() const;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return seeds.size() * buckets.size() * schedulers.size() + extra.size();
  }

  /// Index of a grid cell in plan order (extras follow the whole grid).
  [[nodiscard]] std::size_t grid_index(std::size_t seed_i, std::size_t bucket_i,
                                       std::size_t scheduler_i) const noexcept {
    return (seed_i * buckets.size() + bucket_i) * schedulers.size() +
           scheduler_i;
  }
};

/// Outcome of one cell: a RunResult, or the captured error of a run that
/// threw. A throwing cell is marked failed; sibling cells are unaffected.
struct CellResult {
  PlanCell cell;
  std::optional<RunResult> result;
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return result.has_value(); }
};

struct RunnerOptions {
  /// Threads that run cells, the caller included; 0 = hardware
  /// concurrency. Clamped to the cell count.
  std::size_t threads = 0;

  /// Per-cell body; defaults to run_scenario. Must be reentrant — it is
  /// called concurrently from worker threads on distinct scenarios and
  /// must share no mutable state across calls (see the thread-safety
  /// contract in simcore/simulation.hpp).
  std::function<RunResult(const Scenario&)> run;
};

/// Executes every cell of `plan` on a TaskPool (threads − 1 workers plus
/// the calling thread) and returns the results indexed exactly like
/// `plan.cells()`. Per-cell exceptions are captured into the cell's
/// CellResult instead of aborting the sweep. Results are bit-identical for
/// any thread count: each run is seeded independently and aggregation
/// order is plan order, not completion order.
[[nodiscard]] std::vector<CellResult> run_plan(
    const ExperimentPlan& plan, const RunnerOptions& options = {});

/// Number of failed cells in a result set.
[[nodiscard]] std::size_t failed_cells(const std::vector<CellResult>& results);

/// Writes "cell <name> (seed <seed>) failed: <error>" to stderr for every
/// failed cell, in plan order, and returns their number — a bench's one
/// failure report after run_plan.
[[nodiscard]] std::size_t report_failed_cells(const std::vector<CellResult>& results);

// ---- matrix aggregation over plan axes --------------------------------

using MetricFn = std::function<double(const RunResult&)>;

/// Folds the seed axis of grid results into a bucket × scheduler matrix of
/// Summaries (mean/stddev/CI per cell). Failed cells simply contribute no
/// observation. Extras are ignored — group them with `group_by_name`.
[[nodiscard]] stats::SummaryMatrix reduce_over_seeds(
    const ExperimentPlan& plan, const std::vector<CellResult>& results,
    const MetricFn& metric);

/// Groups results (grid and extras alike) by scenario name — scenarios
/// sharing a name across seeds fold into one Summary, in first-appearance
/// order.
[[nodiscard]] stats::GroupedSummary group_by_name(
    const std::vector<CellResult>& results, const MetricFn& metric);

/// The ok results of the last seed of a grid plan, in (bucket, scheduler)
/// order — the slice benches print as per-run CSV.
[[nodiscard]] std::vector<RunResult> last_seed_results(
    const ExperimentPlan& plan, const std::vector<CellResult>& results);

}  // namespace cbs::harness
