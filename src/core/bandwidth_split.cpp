#include "core/bandwidth_split.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sla/slack.hpp"

namespace cbs::core {

std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const std::vector<cbs::workload::Document>& batch, const BeliefState& belief,
    cbs::sim::SimTime now, std::size_t ic_machines,
    const std::vector<double>& queue_backlog_bytes) {
  std::vector<double> scratch;
  return compute_size_interval_bounds(batch, belief, now, ic_machines,
                                      queue_backlog_bytes, scratch);
}

std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const std::vector<cbs::workload::Document>& batch, const BeliefState& belief,
    cbs::sim::SimTime now, std::size_t ic_machines,
    const std::vector<double>& queue_backlog_bytes,
    std::vector<double>& scratch_sizes) {
  assert(queue_backlog_bytes.size() == 3);
  const auto n = static_cast<double>(ic_machines);

  // Lines 3–12: collect the sizes of burst-eligible jobs — those whose
  // no-load round trip fits within the believed IC drain horizon that keeps
  // growing as eligible jobs are (hypothetically) kept local.
  const double iload = belief.ic_backlog_standard_seconds() / n;
  double rload = 0.0;
  std::vector<double>& eligible_sizes = scratch_sizes;  // the list L
  eligible_sizes.clear();
  for (const auto& doc : batch) {
    const double t_ec = belief.ec_round_trip_no_load(doc, now);
    if (t_ec < iload + rload / n) {
      eligible_sizes.push_back(doc.features.size_mb);
      rload += belief.estimate_service(doc);
    }
  }
  if (eligible_sizes.empty()) return std::nullopt;

  // Line 13: normalized left-over capacity of each queue. An empty system
  // degenerates to equal thirds. A backlog below zero is treated as empty:
  // one negative share would push another past 1 and its count past |L|.
  const double backlog[3] = {std::max(0.0, queue_backlog_bytes[0]),
                             std::max(0.0, queue_backlog_bytes[1]),
                             std::max(0.0, queue_backlog_bytes[2])};
  const double total_backlog = backlog[0] + backlog[1] + backlog[2];
  double leftover[3];
  if (total_backlog <= 0.0) {
    leftover[0] = leftover[1] = leftover[2] = 1.0;
  } else {
    for (int q = 0; q < 3; ++q) {
      leftover[q] = 1.0 - backlog[q] / total_backlog;
    }
  }
  const double leftover_sum = leftover[0] + leftover[1] + leftover[2];
  assert(leftover_sum > 0.0);

  // Lines 14–17: cut L proportionally to the left-over shares; the
  // partition boundaries become the small/medium upper bounds. Both bounds
  // are order statistics of L, so nth_element selection yields values
  // identical to the former full sort at O(|L|) instead of O(|L| log |L|).
  const auto count = static_cast<double>(eligible_sizes.size());
  const auto small_count = static_cast<std::size_t>(
      std::floor(count * leftover[0] / leftover_sum));
  const auto medium_count = static_cast<std::size_t>(
      std::floor(count * leftover[1] / leftover_sum));

  // small bound: sorted[small_count-1], or the minimum when the small share
  // rounds to zero — both are the k_small-th order statistic.
  const std::size_t k_small = small_count > 0 ? small_count - 1 : 0;
  const std::size_t medium_last =
      std::min(eligible_sizes.size() - 1, small_count + std::max<std::size_t>(
                                                            medium_count, 1) -
                                              1);
  assert(medium_last >= k_small);
  const auto begin = eligible_sizes.begin();
  std::nth_element(begin, begin + static_cast<std::ptrdiff_t>(k_small),
                   eligible_sizes.end());
  SizeIntervalBounds bounds;
  bounds.small_upper_mb = eligible_sizes[k_small];
  if (medium_last > k_small) {
    // Everything right of k_small is >= the small bound after the first
    // selection, so the second selection can skip the prefix.
    std::nth_element(begin + static_cast<std::ptrdiff_t>(k_small) + 1,
                     begin + static_cast<std::ptrdiff_t>(medium_last),
                     eligible_sizes.end());
    bounds.medium_upper_mb =
        std::max(eligible_sizes[medium_last], bounds.small_upper_mb);
  } else {
    bounds.medium_upper_mb = bounds.small_upper_mb;
  }
  return bounds;
}

std::vector<ScheduleDecision> BandwidthSplitScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  // Bound computation sees the batch *after* chunking — the chunks are the
  // uploadable units whose sizes the queues must balance.
  apply_chunking(docs, ctx);
  if (auto bounds = compute_size_interval_bounds(
          docs, ctx.belief, ctx.now, ctx.ic_machines,
          ctx.upload_class_backlog_bytes, size_scratch_)) {
    bounds_ = *bounds;
  }

  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    out.push_back(place(doc, ctx));
  }
  return out;
}

ScheduleDecision BandwidthSplitScheduler::place(
    const cbs::workload::Document& doc, Context& ctx) {
  ScheduleDecision d = OrderPreservingScheduler::place(doc, ctx);
  if (d.placement == cbs::sla::Placement::kExternal) {
    d.upload_class = bounds_.class_of(doc.features.size_mb);
  }
  return d;
}

}  // namespace cbs::core
