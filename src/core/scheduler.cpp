#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sla/slack.hpp"
#include "workload/chunker.hpp"

namespace cbs::core {

ScheduleDecision decide_ic(const cbs::workload::Document& doc,
                           ScheduleContext& ctx) {
  ScheduleDecision d;
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kInternal;
  d.estimated_service_seconds = ctx.belief.estimate_service(doc);
  ctx.belief.commit_ic(d.seq_id, d.estimated_service_seconds);
  return d;
}

ScheduleDecision decide_ec(const cbs::workload::Document& doc,
                           const EcEstimate& estimate, ScheduleContext& ctx,
                           int upload_class) {
  ScheduleDecision d;
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kExternal;
  d.estimated_service_seconds = ctx.belief.estimate_service(doc);
  d.ec_estimate = estimate;
  d.upload_class = upload_class;
  ctx.belief.commit_ec(d.seq_id, doc, estimate);
  return d;
}

namespace {

using Docs = std::vector<cbs::workload::Document>;

/// Baseline: everything runs internally (the paper's "ICOnly" scheduler).
std::vector<ScheduleDecision> schedule_ic_only(const Docs& docs,
                                               ScheduleContext& ctx) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) out.push_back(decide_ic(doc, ctx));
  return out;
}

/// The model-free comparator: bursts each job with probability
/// kRandomBurstProbability.
std::vector<ScheduleDecision> schedule_random(const Docs& docs,
                                              ScheduleContext& ctx,
                                              cbs::sim::RngStream& rng) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    if (rng.next_double() < kRandomBurstProbability) {
      // Still record the believed round trip so the belief stays coherent;
      // the decision itself ignores it.
      out.push_back(decide_ec(doc, ctx.belief.ft_ec(doc, ctx.now), ctx));
    } else {
      out.push_back(decide_ic(doc, ctx));
    }
  }
  return out;
}

/// Algorithm 1 — the job-level greedy choice: each job goes where its
/// estimated finish time is earlier. Simple, but bursted jobs can land on
/// the critical path: a download delayed by a bandwidth dip directly delays
/// in-order consumption (§IV.D), which is what Fig. 7–10 penalize.
std::vector<ScheduleDecision> schedule_greedy(const Docs& docs,
                                              ScheduleContext& ctx) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    // Algorithm 1, lines 2-8: compare ft^ic with ft^ec and take the smaller.
    // Greedy sees the system's queues as they are (each decision enqueues
    // real bytes, so the upload backlog is live), but reads the network at
    // its transient value and never anticipates the *future* download
    // contention its bursts create beyond what is queued right now — the
    // §IV.D fragility.
    const cbs::sim::SimTime t_ic = ctx.belief.ft_ic(doc, ctx.now);
    const EcEstimate ec =
        ctx.belief.ft_ec_job_level(doc, ctx.now, ctx.download_backlog_bytes);
    if (t_ic <= ec.finish) {
      out.push_back(decide_ic(doc, ctx));
    } else {
      out.push_back(decide_ec(doc, ec, ctx));
    }
  }
  return out;
}

// ---- Algorithm 2 — the Order Preserving scheduler ----------------------
//
// Jobs should complete in near-arrival order and no internal job should
// ever wait on a bursted one. Two mechanisms:
//
//  1. *Variance-triggered chunking* (lines 3–10): while the standard
//     deviation of the next `variability_window` job sizes exceeds
//     `variability_threshold_mb`, the head job is pdfchunk()ed and the
//     chunks spliced into the list as ordinary jobs.
//  2. *Slack-gated bursting* (lines 11–16): a job is sent externally only
//     when its estimated round trip finishes within the cushion created by
//     the jobs ahead of it (Eq. 1–2) — so bursted jobs are never on the
//     believed critical path.

/// Sample standard deviation of the sizes of docs[first, last): the sums
/// of stats::stddev_of, in its order, without copying the sizes out.
double size_stddev(const Docs& docs, std::size_t first, std::size_t last) {
  const std::size_t n = last - first;
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t k = first; k < last; ++k) sum += docs[k].features.size_mb;
  const double mean = sum / static_cast<double>(n);
  double squares = 0.0;
  for (std::size_t k = first; k < last; ++k) {
    const double x = docs[k].features.size_mb;
    squares += (x - mean) * (x - mean);
  }
  return std::sqrt(squares / static_cast<double>(n - 1));
}

/// Runs Algorithm 2's chunking pass in place over the batch.
void apply_chunking(Docs& docs, ScheduleContext& ctx) {
  const auto window = static_cast<std::size_t>(ctx.params.variability_window);
  const std::size_t original_size = docs.size();
  const cbs::workload::PdfChunker chunker(ctx.params.chunker);

  // The batch with every split document replaced by its chunks, in order;
  // started at the first split, so a batch that splits nothing is left as
  // it is. The documents after input document j are still the unsplit
  // input docs[j + 1, end), so the window is read from docs.
  Docs spliced;
  for (std::size_t j = 0; j < original_size; ++j) {
    if (!docs[j].is_chunk()) {
      // σ(i : i+x) over the sizes of the upcoming window (lines 4–5).
      const double sigma =
          size_stddev(docs, j, std::min(original_size, j + window));

      if (sigma > ctx.params.variability_threshold_mb &&
          chunker.chunk_count_for(docs[j].features.size_mb) > 1) {
        // Lines 6–9: replace j_i by its chunks, spliced in order. Chunks
        // are never re-split.
        auto chunks = chunker.chunk(docs[j], ctx.truth, ctx.next_doc_id);
        if (spliced.empty()) {
          const auto split = docs.begin() + static_cast<std::ptrdiff_t>(j);
          spliced.reserve(original_size - 1 + chunks.size());
          spliced.assign(std::make_move_iterator(docs.begin()),
                         std::make_move_iterator(split));
        }
        spliced.insert(spliced.end(), std::make_move_iterator(chunks.begin()),
                       std::make_move_iterator(chunks.end()));
        continue;
      }
    }
    if (!spliced.empty()) spliced.push_back(std::move(docs[j]));
  }
  if (!spliced.empty()) docs = std::move(spliced);
}

/// Placement for one job once chunking is settled.
ScheduleDecision place_order_preserving(const cbs::workload::Document& doc,
                                        ScheduleContext& ctx) {
  // Lines 11–16: burst exactly when the estimated external finish fits the
  // cushion of the jobs ahead.
  const EcEstimate ec = ctx.belief.ft_ec(doc, ctx.now);
  const cbs::sim::SimTime cushion = ctx.belief.slack(ctx.now);
  if (cbs::sla::satisfies_slack(ec.finish, cushion,
                                ctx.params.slack_safety_margin)) {
    return decide_ec(doc, ec, ctx);
  }
  return decide_ic(doc, ctx);
}

std::vector<ScheduleDecision> schedule_order_preserving(Docs docs,
                                                        ScheduleContext& ctx) {
  apply_chunking(docs, ctx);
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    out.push_back(place_order_preserving(doc, ctx));
  }
  return out;
}

/// §IV.C — the Order Preserving scheduler with Size-interval Bandwidth
/// Splitting: uploads are partitioned into small/medium/large queues whose
/// bounds are recomputed per batch (Algorithm 3), isolating small jobs from
/// large ones so they reach the EC faster. Lower-class jobs may ride
/// higher-class queues, never the reverse.
std::vector<ScheduleDecision> schedule_bandwidth_split(
    Docs docs, ScheduleContext& ctx, SizeIntervalBounds& bounds,
    std::vector<double>& scratch_sizes) {
  // Bound computation sees the batch *after* chunking — the chunks are the
  // uploadable units whose sizes the queues must balance.
  apply_chunking(docs, ctx);
  if (auto fresh = compute_size_interval_bounds(
          docs, ctx.belief, ctx.now, ctx.ic_machines,
          ctx.upload_class_backlog_bytes, scratch_sizes)) {
    bounds = *fresh;
  }

  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    ScheduleDecision d = place_order_preserving(doc, ctx);
    if (d.placement == cbs::sla::Placement::kExternal) {
      d.upload_class = bounds.class_of(doc.features.size_mb);
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

std::vector<ScheduleDecision> schedule_batch(SchedulerKind kind, Docs docs,
                                             ScheduleContext& ctx,
                                             SchedulerState& state) {
  switch (kind) {
    case SchedulerKind::kIcOnly:
      return schedule_ic_only(docs, ctx);
    case SchedulerKind::kGreedy:
      return schedule_greedy(docs, ctx);
    case SchedulerKind::kOrderPreserving:
      return schedule_order_preserving(std::move(docs), ctx);
    case SchedulerKind::kBandwidthSplit:
      return schedule_bandwidth_split(std::move(docs), ctx, state.bounds,
                                      state.size_scratch);
    case SchedulerKind::kRandom:
      return schedule_random(docs, ctx, state.rng);
    case SchedulerKind::kLookahead:
      break;
  }
  throw std::invalid_argument(
      "schedule_batch: lookahead chooses among the other policies and "
      "places no batch itself");
}

std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const Docs& batch, const BeliefState& belief, cbs::sim::SimTime now,
    std::size_t ic_machines, const std::vector<double>& queue_backlog_bytes,
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

}  // namespace cbs::core
