#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/belief_state.hpp"
#include "core/config.hpp"
#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"
#include "workload/chunker.hpp"
#include "workload/document.hpp"
#include "simcore/rng.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::core {

/// One placement decision produced by a scheduler. After Algorithm-2
/// chunking, a single arriving document may yield several decisions.
struct ScheduleDecision {
  std::uint64_t seq_id = 0;  ///< FCFS queue position assigned by the scheduler
  cbs::workload::Document doc;
  cbs::sla::Placement placement = cbs::sla::Placement::kInternal;
  double estimated_service_seconds = 0.0;
  /// Valid when placement == kExternal.
  EcEstimate ec_estimate{};
  /// Upload size-interval class (Algorithm 3); 0 for single-queue policies.
  int upload_class = 0;
};

/// The burst-scheduler strategy interface (§IV): given a freshly arrived
/// batch and the controller's belief state, decide when/where/how-much.
/// Implementations must assign sequence ids via ctx.next_seq and commit
/// every decision to ctx.belief, so that later in-batch decisions (and
/// later batches) see the load they just created.
class Scheduler {
 public:
  struct Context {
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
    /// s_up/m_up/l_up), summed over the EC sites; single-queue schedulers
    /// see one entry.
    std::vector<double> upload_class_backlog_bytes;
    /// Bytes waiting/in flight on each EC site's downlink at batch arrival.
    std::vector<double> download_backlog_bytes;
  };

  virtual ~Scheduler() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Decides placement for every document of the batch, in arrival order.
  [[nodiscard]] virtual std::vector<ScheduleDecision> schedule_batch(
      std::vector<cbs::workload::Document> docs, Context& ctx) = 0;

  /// Fork support: deep-copies the scheduler (including any per-run state,
  /// e.g. RandomScheduler's RNG position or BandwidthSplit's bounds).
  /// Returns nullptr when the concrete type does not support forking
  /// (ad-hoc test schedulers keep the default).
  [[nodiscard]] virtual std::unique_ptr<Scheduler> clone() const {
    return nullptr;
  }
};

/// Baseline: everything runs internally (the paper's "ICOnly" scheduler).
class IcOnlyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string_view name() const override { return "ic-only"; }
  [[nodiscard]] std::vector<ScheduleDecision> schedule_batch(
      std::vector<cbs::workload::Document> docs, Context& ctx) override;
  [[nodiscard]] std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<IcOnlyScheduler>();
  }
};

/// Model-free baseline: bursts each job with a fixed probability,
/// independent of estimates, queues or slack. §III argues that "even
/// imprecise estimates of remaining workload have been shown to have merit
/// ... relative to a random scheduler" — this is that comparator.
class RandomScheduler final : public Scheduler {
 public:
  /// Probability that a job is bursted.
  static constexpr double kBurstProbability = 0.15;
  /// Seed of the burst draws; every run draws the same sequence.
  static constexpr std::uint64_t kSeed = 12345;

  [[nodiscard]] std::string_view name() const override { return "random"; }
  [[nodiscard]] std::vector<ScheduleDecision> schedule_batch(
      std::vector<cbs::workload::Document> docs, Context& ctx) override;
  [[nodiscard]] std::unique_ptr<Scheduler> clone() const override {
    return std::make_unique<RandomScheduler>(*this);
  }

 private:
  cbs::sim::RngStream rng_{kSeed};
};

/// Factory for the four §IV/§V scheduler flavors.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind);

/// Shared helper: finalize an IC decision (estimate, commit, fill record).
[[nodiscard]] ScheduleDecision decide_ic(const cbs::workload::Document& doc,
                                         Scheduler::Context& ctx);

/// Shared helper: finalize an EC decision with the given round-trip
/// estimate.
[[nodiscard]] ScheduleDecision decide_ec(const cbs::workload::Document& doc,
                                         const EcEstimate& estimate,
                                         Scheduler::Context& ctx,
                                         int upload_class = 0);

}  // namespace cbs::core
