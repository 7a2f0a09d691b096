#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "workload/chunker.hpp"

namespace cbs::core {

ScheduleDecision& decide_ic(const cbs::workload::Document& doc,
                            double service, ScheduleContext& ctx,
                            std::vector<ScheduleDecision>& out) {
  ScheduleDecision& d = out.emplace_back();
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kInternal;
  d.estimated_service_seconds = service;
  ctx.belief.commit_ic(d.seq_id, service);
  return d;
}

ScheduleDecision& decide_ec(const cbs::workload::Document& doc,
                            double service, const EcEstimate& estimate,
                            ScheduleContext& ctx,
                            std::vector<ScheduleDecision>& out) {
  ScheduleDecision& d = out.emplace_back();
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kExternal;
  d.estimated_service_seconds = service;
  d.ec_estimate = estimate;
  ctx.belief.commit_ec(d.seq_id, doc, service, estimate);
  return d;
}

namespace {

using Docs = std::vector<cbs::workload::Document>;

/// Baseline: everything runs internally (the paper's "ICOnly" scheduler).
void schedule_ic_only(const Docs& docs, ScheduleContext& ctx,
                      std::vector<ScheduleDecision>& out) {
  for (const auto& doc : docs) {
    decide_ic(doc, ctx.belief.estimate_service(doc), ctx, out);
  }
}

/// The model-free comparator: bursts each job with probability
/// kRandomBurstProbability.
void schedule_random(const Docs& docs, ScheduleContext& ctx,
                     cbs::sim::RngStream& rng,
                     std::vector<ScheduleDecision>& out) {
  for (const auto& doc : docs) {
    const double service = ctx.belief.estimate_service(doc);
    if (rng.next_double() < kRandomBurstProbability) {
      // Still record the believed round trip so the belief stays coherent;
      // the decision itself ignores it.
      decide_ec(doc, service, ctx.belief.ft_ec(doc, service, ctx.now), ctx,
                out);
    } else {
      decide_ic(doc, service, ctx, out);
    }
  }
}

/// Algorithm 1 — the job-level greedy choice: each job goes where its
/// estimated finish time is earlier. Simple, but bursted jobs can land on
/// the critical path: a download delayed by a bandwidth dip directly delays
/// in-order consumption (§IV.D), which is what Fig. 7–10 penalize.
void schedule_greedy(const Docs& docs, ScheduleContext& ctx,
                     std::vector<ScheduleDecision>& out) {
  for (const auto& doc : docs) {
    // Algorithm 1, lines 2-8: compare ft^ic with ft^ec and take the smaller.
    // Greedy sees the system's queues as they are (each decision enqueues
    // real bytes, so the upload backlog is live), but reads the network at
    // its transient value and never anticipates the *future* download
    // contention its bursts create beyond what is queued right now — the
    // §IV.D fragility.
    const double service = ctx.belief.estimate_service(doc);
    const cbs::sim::SimTime t_ic = ctx.belief.ft_ic(service, ctx.now);
    const EcEstimate ec = ctx.belief.ft_ec_job_level(
        doc, service, ctx.now, ctx.download_backlog_bytes);
    if (t_ic <= ec.finish) {
      decide_ic(doc, service, ctx, out);
    } else {
      decide_ec(doc, service, ec, ctx, out);
    }
  }
}

// ---- Algorithm 2 — the Order Preserving scheduler ----------------------
//
// Jobs should complete in near-arrival order and no internal job should
// ever wait on a bursted one. Two mechanisms:
//
//  1. *Variance-triggered chunking* (lines 3–10): while the standard
//     deviation of the next kVariabilityWindow job sizes exceeds
//     `variability_threshold_mb`, the head job is pdfchunk()ed and the
//     chunks spliced into the list as ordinary jobs.
//  2. *Slack-gated bursting* (lines 11–16): a job is sent externally only
//     when its estimated round trip finishes within the cushion created by
//     the jobs ahead of it (Eq. 1–2) — so bursted jobs are never on the
//     believed critical path.

/// Algorithm 2's look-ahead window x of the variability test σ(i:i+x).
constexpr std::size_t kVariabilityWindow = 5;

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

/// Runs Algorithm 2's chunking pass over the batch, handing `place` every
/// document in order with each split document replaced by its chunks.
/// Chunking reads no belief and placing draws no chunk id, so placing each
/// document as the pass reaches it is the same as chunking the whole batch
/// first.
template <typename Place>
void for_each_chunked(const Docs& docs, ScheduleContext& ctx, Place&& place) {
  const cbs::workload::PdfChunker chunker({});
  for (std::size_t j = 0; j < docs.size(); ++j) {
    if (!docs[j].is_chunk()) {
      // σ(i : i+x) over the sizes of the upcoming window (lines 4–5); the
      // documents after input document j are still the unsplit input.
      const double sigma =
          size_stddev(docs, j, std::min(docs.size(), j + kVariabilityWindow));

      if (sigma > ctx.params.variability_threshold_mb &&
          chunker.chunk_count_for(docs[j].features.size_mb) > 1) {
        // Lines 6–9: replace j_i by its chunks, in order. Chunks are never
        // re-split.
        for (const auto& chunk :
             chunker.chunk(docs[j], ctx.truth, ctx.next_doc_id)) {
          place(chunk);
        }
        continue;
      }
    }
    place(docs[j]);
  }
}

/// Placement for one job once chunking is settled.
ScheduleDecision& place_order_preserving(const cbs::workload::Document& doc,
                                         ScheduleContext& ctx,
                                         std::vector<ScheduleDecision>& out) {
  // Lines 11–16: burst exactly when the estimated external finish fits the
  // cushion of the jobs ahead. The cushion comes first, so that pricing
  // the round trip can stop once it is sure to miss.
  const double service = ctx.belief.estimate_service(doc);
  const cbs::sim::SimTime cushion = ctx.belief.slack(ctx.now);
  if (const auto ec = ctx.belief.ft_ec_within(
          doc, service, ctx.now, cushion, ctx.params.slack_safety_margin)) {
    return decide_ec(doc, service, *ec, ctx, out);
  }
  return decide_ic(doc, service, ctx, out);
}

void schedule_order_preserving(const Docs& docs, ScheduleContext& ctx,
                               std::vector<ScheduleDecision>& out) {
  for_each_chunked(docs, ctx, [&](const cbs::workload::Document& doc) {
    place_order_preserving(doc, ctx, out);
  });
}

/// §IV.C — the Order Preserving scheduler with Size-interval Bandwidth
/// Splitting: uploads are partitioned into small/medium/large queues whose
/// bounds are recomputed per batch (Algorithm 3), isolating small jobs from
/// large ones so they reach the EC faster. Lower-class jobs may ride
/// higher-class queues, never the reverse.
void schedule_bandwidth_split(const Docs& docs, ScheduleContext& ctx,
                              SchedulerState& state) {
  // Bound computation sees the batch *after* chunking — the chunks are the
  // uploadable units whose sizes the queues must balance.
  Docs& batch = state.buffers.chunked;
  batch.clear();
  for_each_chunked(docs, ctx, [&batch](const cbs::workload::Document& doc) {
    batch.push_back(doc);
  });
  if (auto fresh = compute_size_interval_bounds(
          batch, ctx.belief, ctx.now, ctx.ic_machines,
          ctx.upload_class_backlog_bytes, state.size_scratch)) {
    state.bounds = *fresh;
  }

  for (const auto& doc : batch) {
    ScheduleDecision& d =
        place_order_preserving(doc, ctx, state.buffers.decisions);
    if (d.placement == cbs::sla::Placement::kExternal) {
      d.upload_class = state.bounds.class_of(doc.features.size_mb);
    }
  }
}

}  // namespace

const std::vector<ScheduleDecision>& schedule_batch(SchedulerKind kind,
                                                    const Docs& docs,
                                                    ScheduleContext& ctx,
                                                    SchedulerState& state) {
  std::vector<ScheduleDecision>& out = state.buffers.decisions;
  out.clear();
  out.reserve(docs.size());
  switch (kind) {
    case SchedulerKind::kIcOnly:
      schedule_ic_only(docs, ctx, out);
      return out;
    case SchedulerKind::kGreedy:
      schedule_greedy(docs, ctx, out);
      return out;
    case SchedulerKind::kOrderPreserving:
      schedule_order_preserving(docs, ctx, out);
      return out;
    case SchedulerKind::kBandwidthSplit:
      schedule_bandwidth_split(docs, ctx, state);
      return out;
    case SchedulerKind::kRandom:
      schedule_random(docs, ctx, state.rng, out);
      return out;
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
    const double service = belief.estimate_service(doc);
    const double t_ec = belief.ec_round_trip_no_load(doc, service, now);
    if (t_ec < iload + rload / n) {
      eligible_sizes.push_back(doc.features.size_mb);
      rload += service;
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
  // are order statistics of L, which nth_element selects in O(|L|) with the
  // values a full sort would put at those positions.
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
