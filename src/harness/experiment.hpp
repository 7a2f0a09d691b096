#pragma once

#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "models/hazard.hpp"
#include "sla/cost.hpp"
#include "sla/job_outcome.hpp"
#include "sla/oo_metric.hpp"
#include "sla/report.hpp"
#include "sla/tickets.hpp"
#include "stats/timeseries.hpp"

namespace cbs::harness {

/// Fault-injection and recovery activity of one run (all zero for a
/// fault-free scenario).
struct FaultStats {
  std::uint64_t ic_crashes = 0;       ///< effective VM crashes on the IC
  std::uint64_t ec_crashes = 0;
  std::uint64_t reexecutions = 0;     ///< tasks reclaimed from crashed VMs
  double wasted_compute_seconds = 0.0;  ///< standard seconds burned and lost
  std::uint64_t link_outage_aborts = 0;  ///< transfers severed by outages
  double wasted_transfer_bytes = 0.0;    ///< moved and lost (both directions)
  std::uint64_t retractions = 0;      ///< bursts pulled back to the IC
  std::uint64_t store_retries = 0;    ///< failed staging attempts
  std::uint64_t store_abandoned = 0;  ///< staging ops that gave up
  std::uint64_t probe_blackout_skips = 0;
  std::uint64_t crashes_injected = 0;  ///< plan-level crash events fired
  std::uint64_t outages = 0;           ///< merged outage windows entered

  // Proactive resilience (all zero when the hazard predictor is off).
  std::uint64_t drains = 0;             ///< pre-emptive drains applied
  std::uint64_t undrains = 0;           ///< drains lifted (risk subsided)
  std::uint64_t drain_preemptions = 0;  ///< checkpoint-restarts at drain time
  std::uint64_t idle_crashes_absorbed = 0;  ///< crashes on drained idle VMs
  /// Standard seconds preserved by checkpoint restarts — compute a crash
  /// would have destroyed (the "wasted compute avoided" metric).
  double checkpointed_compute_seconds = 0.0;
  /// Predictor quality (predicted-vs-actual crashes), pooled over the IC
  /// and then the EC sites.
  cbs::models::HazardPredictionStats hazard{};
};

/// Everything a bench or test needs from one finished run.
struct RunResult {
  Scenario scenario;
  cbs::sla::SlaReport report;
  std::vector<cbs::sla::JobOutcome> outcomes;
  /// o_t sampled at the scenario's OO interval/tolerance.
  cbs::stats::TimeSeries oo_series;
  double sim_end_time = 0.0;
  std::size_t events_processed = 0;
  std::size_t pull_backs = 0;
  std::size_t push_outs = 0;
  /// QRSM fit quality at end of run (NaN for the oracle estimator).
  double qrsm_r_squared = 0.0;
  /// Peak bytes staged in the EC store.
  double peak_store_bytes = 0.0;
  /// Ticket SLA scorecard (scenario.ticket_policy).
  cbs::sla::TicketReport tickets{};
  /// Pay-as-you-go bill (the rate card of sla/cost.hpp).
  cbs::sla::CostReport cost{};
  /// Fault/recovery counters (all zero when faults are disabled).
  FaultStats faults{};
};

/// Runs one scenario end to end: builds the hybrid cloud, pretrains the
/// QRSM on a synthetic factory corpus, schedules the batch arrivals, drives
/// the simulation to completion, validates the outcome invariants (throws
/// std::runtime_error on violation) and assembles the metrics.
///
/// Reentrant: every call builds its own Simulation, RNG streams and Logger
/// from the scenario alone and shares no mutable state with concurrent
/// calls, so the parallel runner (harness/runner.hpp) may invoke it from
/// many threads at once. The result is a pure function of the scenario —
/// identical at any thread count.
[[nodiscard]] RunResult run_scenario(const Scenario& scenario);

/// Per-job completion series in queue order (Fig. 7/8's x-axis is the job
/// id, y-axis the completion time).
[[nodiscard]] std::vector<double> completion_by_seq(const RunResult& result);

}  // namespace cbs::harness
