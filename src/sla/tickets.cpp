#include "sla/tickets.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cbs::sla {

TicketReport evaluate_tickets(const std::vector<JobOutcome>& outcomes,
                              const TicketPolicy& policy) {
  TicketReport r;
  r.jobs = outcomes.size();
  if (outcomes.empty()) return r;

  std::vector<double> latenesses;
  double slack_total = 0.0;
  double late_total = 0.0;
  for (const JobOutcome& o : outcomes) {
    const double deadline = policy.deadline_for(o);
    const double lateness = o.completed - deadline;
    if (lateness <= 0.0) {
      ++r.met;
      slack_total += -lateness;
    } else {
      latenesses.push_back(lateness);
      late_total += lateness;
      r.max_lateness = std::max(r.max_lateness, lateness);
    }
  }
  r.hit_rate = static_cast<double>(r.met) / static_cast<double>(r.jobs);
  if (r.met > 0) r.mean_slack_left = slack_total / static_cast<double>(r.met);
  if (!latenesses.empty()) {
    r.mean_lateness = late_total / static_cast<double>(latenesses.size());
    // The element a full sort would put at idx, found in O(n).
    const auto idx = static_cast<std::size_t>(
        0.95 * static_cast<double>(latenesses.size() - 1));
    const auto p95 = latenesses.begin() + static_cast<std::ptrdiff_t>(idx);
    std::nth_element(latenesses.begin(), p95, latenesses.end());
    r.p95_lateness = *p95;
  }
  return r;
}

double tightest_ticket_scale(const std::vector<JobOutcome>& outcomes,
                             const TicketPolicy& policy,
                             double target_hit_rate) {
  assert(target_hit_rate > 0.0 && target_hit_rate <= 1.0);
  if (outcomes.empty()) return 1.0;

  // Per-job required scale: (completed - arrival) / promised window. The
  // target hit rate is achieved by the corresponding order statistic.
  std::vector<double> required;
  required.reserve(outcomes.size());
  for (const JobOutcome& o : outcomes) {
    const double window = policy.base_seconds + policy.seconds_per_mb * o.input_mb;
    assert(window > 0.0);
    required.push_back((o.completed - o.arrival) / window);
  }
  std::sort(required.begin(), required.end());
  const auto idx = std::min(
      required.size() - 1,
      static_cast<std::size_t>(std::ceil(
          target_hit_rate * static_cast<double>(required.size()))) == 0
          ? 0
          : static_cast<std::size_t>(std::ceil(
                target_hit_rate * static_cast<double>(required.size()))) -
                1);
  return required[idx];
}

}  // namespace cbs::sla
