#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/belief_state.hpp"
#include "core/config.hpp"
#include "simcore/rng.hpp"
#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"
#include "workload/document.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::core {

/// One placement decision produced by a policy. After Algorithm-2
/// chunking, a single arriving document may yield several decisions.
struct ScheduleDecision {
  std::uint64_t seq_id = 0;  ///< FCFS queue position assigned by the policy
  cbs::workload::Document doc;
  cbs::sla::Placement placement = cbs::sla::Placement::kInternal;
  double estimated_service_seconds = 0.0;
  /// Valid when placement == kExternal.
  EcEstimate ec_estimate{};
  /// Upload size-interval class (Algorithm 3); 0 for single-queue policies.
  int upload_class = 0;
};

/// What a burst policy (§IV) reads and writes while it places one freshly
/// arrived batch. A policy assigns sequence ids via next_seq and commits
/// every decision to belief, so that later in-batch decisions (and later
/// batches) see the load they just created.
struct ScheduleContext {
  cbs::sim::SimTime now = 0.0;
  BeliefState& belief;
  const SchedulerParams& params;
  /// For chunk output sizes (a deterministic, observable document
  /// property — not a hidden runtime quantity).
  const cbs::workload::GroundTruthModel& truth;
  std::uint64_t* next_seq;     ///< global FCFS position counter
  std::uint64_t* next_doc_id;  ///< id source for chunk documents
  std::size_t ic_machines = 1; ///< |IC| (Algorithm 3's n)
  /// Upload backlog per size-interval class (Algorithm 3's
  /// s_up/m_up/l_up), summed over the EC sites. Filled only for the kinds
  /// that read it (reads_upload_class_backlog()).
  std::vector<double> upload_class_backlog_bytes;
  /// Bytes waiting/in flight on each EC site's downlink at batch arrival.
  /// Filled only for the kinds that read it (reads_download_backlog()).
  std::vector<double> download_backlog_bytes;
};

/// Algorithm 3's upload queues: small, medium and large.
inline constexpr int kSizeIntervalQueues = 3;

/// Upload classes every EC site needs for batches admitted under `kind`.
[[nodiscard]] constexpr int upload_classes(SchedulerKind kind) noexcept {
  return kind == SchedulerKind::kBandwidthSplit ? kSizeIntervalQueues : 1;
}

/// The bandwidth belief `kind` decides on: Algorithm 1 conditions on "the
/// current transit bandwidth" — the transient reading, not the learned
/// time-of-day model (§IV.D).
[[nodiscard]] constexpr BandwidthView bandwidth_view_for(
    SchedulerKind kind) noexcept {
  return kind == SchedulerKind::kGreedy ? BandwidthView::kTransient
                                        : BandwidthView::kLearned;
}

/// The size-interval bounds computed per batch by Algorithm 3.
struct SizeIntervalBounds {
  double small_upper_mb = 0.0;   ///< s_bound
  double medium_upper_mb = 0.0;  ///< m_bound

  [[nodiscard]] int class_of(double size_mb) const noexcept {
    if (size_mb <= small_upper_mb) return 0;
    if (size_mb <= medium_upper_mb) return 1;
    return 2;
  }
};

/// The random comparator (§III cites [8]'s random scheduler) bursts each
/// job with this probability, independent of estimates, queues or slack;
/// every run draws the same sequence from this seed.
inline constexpr double kRandomBurstProbability = 0.15;
inline constexpr std::uint64_t kRandomSeed = 12345;

/// Whether batches admitted under `kind` read the per-class upload
/// backlogs (Algorithm 3) or the download backlogs (Algorithm 1's
/// job-level ft^ec) of ScheduleContext; the other kinds leave them empty.
[[nodiscard]] constexpr bool reads_upload_class_backlog(
    SchedulerKind kind) noexcept {
  return kind == SchedulerKind::kBandwidthSplit;
}
[[nodiscard]] constexpr bool reads_download_backlog(
    SchedulerKind kind) noexcept {
  return kind == SchedulerKind::kGreedy;
}

/// Buffers an admission reuses from batch to batch: the batch after
/// Algorithm 2's chunking and the eligible-size list L (bandwidth-split,
/// which sizes its queues on the whole chunked batch first), and the
/// decisions. What they hold means nothing once the batch is placed, so a
/// copy — a fork's — starts empty instead of copying it.
struct AdmissionBuffers {
  AdmissionBuffers() = default;
  AdmissionBuffers(const AdmissionBuffers& /*other*/)
      : chunked(), sizes(), decisions() {}
  AdmissionBuffers& operator=(const AdmissionBuffers& /*other*/) {
    return *this;
  }

  std::vector<cbs::workload::Document> chunked;
  std::vector<double> sizes;
  std::vector<ScheduleDecision> decisions;
};

/// Every policy's per-run state, as one value: a controller holds it and a
/// fork copies it. Each field belongs to one kind, so a run that admits
/// under several kinds never lets one disturb another's.
struct SchedulerState {
  /// Bandwidth-split: the Algorithm-3 bounds in force (sane defaults
  /// before batch 1).
  SizeIntervalBounds bounds{40.0, 120.0};
  /// Random: the burst draws.
  cbs::sim::RngStream rng{kRandomSeed};
  /// Every kind: the admission's reused buffers.
  AdmissionBuffers buffers;
};

/// The §IV burst policies: places every document of the batch under
/// `kind`, in arrival order. The decisions live in `state`'s buffers until
/// the next call on `state`. Throws std::invalid_argument for kLookahead,
/// which picks among the other kinds (harness/world.hpp) and places
/// nothing itself.
[[nodiscard]] const std::vector<ScheduleDecision>& schedule_batch(
    SchedulerKind kind, const std::vector<cbs::workload::Document>& docs,
    ScheduleContext& ctx, SchedulerState& state);

/// Algorithm 3 in isolation (exposed for unit testing): given the batch,
/// the believed IC load and the per-queue upload backlogs, computes the
/// small/medium bounds that equalize the expected network load across the
/// three upload queues. Returns nullopt when no job is burst-eligible
/// (lines 3–12 select nothing), in which case the previous bounds remain
/// in force. `scratch_sizes` is cleared and reused as the eligible-size
/// list L, so per-batch calls stop allocating once the buffer has warmed
/// up. The bounds are selected with nth_element (they are order statistics
/// of L) — values are identical to the sorting implementation.
[[nodiscard]] std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const std::vector<cbs::workload::Document>& batch, const BeliefState& belief,
    cbs::sim::SimTime now, std::size_t ic_machines,
    const std::vector<double>& queue_backlog_bytes,
    std::vector<double>& scratch_sizes);

/// Shared helper: finalizes an IC decision, committed with the service
/// estimate `service` it was priced with, as the next entry of `out`.
ScheduleDecision& decide_ic(const cbs::workload::Document& doc,
                            double service, ScheduleContext& ctx,
                            std::vector<ScheduleDecision>& out);

/// Shared helper: finalizes an EC decision with the service and round-trip
/// estimates it was priced with as the next entry of `out`.
ScheduleDecision& decide_ec(const cbs::workload::Document& doc,
                            double service, const EcEstimate& estimate,
                            ScheduleContext& ctx,
                            std::vector<ScheduleDecision>& out);

}  // namespace cbs::core
