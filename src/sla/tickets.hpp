#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"

namespace cbs::sla {

/// The paper's §I ticket SLA: "Jobs are given a ticket that they will
/// finish a certain number of seconds from their submission point. Thus
/// the OO metric is directly correlated to whether or not the expectation
/// of the ticket-holder (human or machine) will be met."
///
/// A TicketPolicy assigns each job a promised completion window from its
/// arrival; the evaluator scores a finished run against those promises.
struct TicketPolicy {
  /// Fixed component of the promise (queueing headroom), seconds.
  double base_seconds = 600.0;
  /// Size-proportional component, seconds promised per input MB.
  double seconds_per_mb = 4.0;

  [[nodiscard]] cbs::sim::SimTime deadline_for(const JobOutcome& o) const {
    return o.arrival + base_seconds + seconds_per_mb * o.input_mb;
  }

  /// How long after its promise `o` completed; 0 when it met it.
  [[nodiscard]] double lateness(const JobOutcome& o) const {
    return std::max(0.0, o.completed - deadline_for(o));
  }
};

/// Scorecard of a run against a ticket policy.
struct TicketReport {
  std::size_t jobs = 0;
  std::size_t met = 0;            ///< completed at or before the promise
  double hit_rate = 0.0;          ///< met / jobs
  double max_lateness = 0.0;      ///< worst overshoot, seconds (0 if none)
  double mean_lateness = 0.0;     ///< mean over LATE jobs only
  double p95_lateness = 0.0;      ///< 95th percentile over late jobs
  double mean_slack_left = 0.0;   ///< mean (deadline - completion) over met jobs
};

/// Scores the outcomes against the policy.
[[nodiscard]] TicketReport evaluate_tickets(const std::vector<JobOutcome>& outcomes,
                                            const TicketPolicy& policy);

/// The tightest uniform scaling of the policy that the run would have met
/// at the given hit-rate target: returns the factor f such that the policy
/// {f*base, f*per_mb} achieves at least `target_hit_rate`. This is the
/// "what ticket can we actually sell" question a capacity planner asks.
[[nodiscard]] double tightest_ticket_scale(
    const std::vector<JobOutcome>& outcomes, const TicketPolicy& policy,
    double target_hit_rate);

}  // namespace cbs::sla
