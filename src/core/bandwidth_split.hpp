#pragma once

#include <optional>

#include "core/order_preserving_scheduler.hpp"

namespace cbs::core {

/// Algorithm 3's upload queues: small, medium and large.
inline constexpr int kSizeIntervalQueues = 3;

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

/// Algorithm 3 in isolation (exposed for unit testing): given the batch,
/// the believed IC load and the per-queue upload backlogs, computes the
/// small/medium bounds that equalize the expected network load across the
/// three upload queues. Returns nullopt when no job is burst-eligible
/// (lines 3–12 select nothing), in which case the previous bounds remain
/// in force.
[[nodiscard]] std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const std::vector<cbs::workload::Document>& batch, const BeliefState& belief,
    cbs::sim::SimTime now, std::size_t ic_machines,
    const std::vector<double>& queue_backlog_bytes);

/// Allocation-free overload: `scratch_sizes` is cleared and reused as the
/// eligible-size list L, so per-batch calls stop allocating once the buffer
/// has warmed up. The bounds are selected with nth_element (they are order
/// statistics of L) — values are identical to the sorting implementation.
[[nodiscard]] std::optional<SizeIntervalBounds> compute_size_interval_bounds(
    const std::vector<cbs::workload::Document>& batch, const BeliefState& belief,
    cbs::sim::SimTime now, std::size_t ic_machines,
    const std::vector<double>& queue_backlog_bytes,
    std::vector<double>& scratch_sizes);

/// §IV.C — the Order Preserving scheduler with Size-interval Bandwidth
/// Splitting: uploads are partitioned into small/medium/large queues whose
/// bounds are recomputed per batch (Algorithm 3), isolating small jobs from
/// large ones so they reach the EC faster. Lower-class jobs may ride
/// higher-class queues, never the reverse.
class BandwidthSplitScheduler final : public OrderPreservingScheduler {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "op-bandwidth-split";
  }

  [[nodiscard]] std::vector<ScheduleDecision> schedule_batch(
      std::vector<cbs::workload::Document> docs, Context& ctx) override;

  [[nodiscard]] const SizeIntervalBounds& bounds() const noexcept { return bounds_; }

  [[nodiscard]] std::unique_ptr<Scheduler> clone() const override {
    auto out = std::make_unique<BandwidthSplitScheduler>();
    out->bounds_ = bounds_;  // carry the in-force Algorithm-3 bounds
    return out;
  }

 protected:
  [[nodiscard]] ScheduleDecision place(const cbs::workload::Document& doc,
                                       Context& ctx) override;

 private:
  SizeIntervalBounds bounds_{40.0, 120.0};  // sane defaults before batch 1
  std::vector<double> size_scratch_;        // reused eligible-size list L
};

}  // namespace cbs::core
