#pragma once

// Whole-run ScenarioWorld benchmark: the workloads, one timed run and one
// traced run. Everything here drives the simulator through its public
// calls only (the ScenarioWorld constructor, run_until, run, result, fork
// and LookaheadController::decide), so the benchmark measures the program
// as a user of the library sees it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "sla/job_outcome.hpp"
#include "workload/arrival.hpp"

namespace perfbench {

/// Workload names, in the order the benchmark lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The scenario of workload `name` at `seed`. `batches` = 0 keeps the
/// workload's own run length; tests pass a smaller one. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] cbs::harness::Scenario make_workload(const std::string& name,
                                                   std::uint64_t seed,
                                                   std::size_t batches = 0);

/// Outcomes in simulated time. They are exact at a fixed seed, so a change
/// that alters what the simulator computes moves them.
struct SimMetrics {
  double ticket_hit_rate = 0.0;
  double p95_lateness_s = 0.0;
  double cloud_cost_usd = 0.0;
  double oo_final_mb = 0.0;
  double makespan_s = 0.0;
};

/// How a run advances the world.
enum class Drive {
  kSliced,    ///< one run_until per batch arrival, then run() for the rest
  kStraight,  ///< a single run()
};

/// One timed run: no spans, only the host clock around the public calls.
struct TimedRun {
  std::vector<double> setup_s;   ///< host seconds of each constructor call
  std::vector<double> slice_ms;  ///< host ms per batch interval, then the drain
  double run_s = 0.0;            ///< every slice plus the drain
  double result_s = 0.0;         ///< ScenarioWorld::result()
  std::size_t documents = 0;     ///< documents the workload generated
  std::size_t jobs = 0;          ///< jobs completed (each chunk is a job)
  std::uint64_t outcome_digest = 0;
  std::uint64_t sim_digest = 0;
  SimMetrics sim;
  std::string error;  ///< empty when every output check passed
};

/// Builds the world `setup_reps` times (each one released before the next
/// is built, so peak RSS holds one world), then runs the last one to the
/// end and checks its outputs. Never throws: failures land in `error`.
[[nodiscard]] TimedRun timed_run(const cbs::harness::Scenario& scenario,
                                 int setup_reps, Drive drive);

/// A span recorded by the traced run, in host microseconds from its start.
struct Span {
  std::string name;
  int parent = -1;  ///< index of the enclosing span, -1 at the top
  double start_us = 0.0;
  double end_us = 0.0;
};

using Metrics = std::vector<std::pair<std::string, double>>;

/// The traced run: the same sliced run, after the same `setup_reps` builds
/// as a timed run, with a span around each public call, probes of fork()
/// and LookaheadController::decide at the middle and final batch, and
/// replays of the QRSM call stream, the SLA functions and the workload
/// draw. Never throws: failures land in `error`.
struct TracedRun {
  Metrics metrics;  ///< per-layer metrics, except trace.overhead_frac
  double jobs_per_s = 0.0;
  std::uint64_t outcome_digest = 0;
  std::vector<Span> spans;
  std::string error;
};

[[nodiscard]] TracedRun traced_run(const cbs::harness::Scenario& scenario,
                                   int setup_reps);

/// FNV-1a over (seq_id, completed, placement) of every outcome, in seq_id
/// order.
[[nodiscard]] std::uint64_t outcome_digest(
    const std::vector<cbs::sla::JobOutcome>& outcomes);

/// Checks that every generated document completed exactly once, either
/// whole or as the chunks the order-preserving scheduler split it into.
/// Returns an empty string when it holds, a description otherwise.
[[nodiscard]] std::string check_conservation(
    const std::vector<cbs::workload::Batch>& batches,
    const std::vector<cbs::sla::JobOutcome>& outcomes);

}  // namespace perfbench
