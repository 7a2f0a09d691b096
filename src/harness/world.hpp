#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/controller.hpp"
#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "simcore/simulation.hpp"
#include "sla/job_outcome.hpp"
#include "sla/oo_metric.hpp"
#include "sla/tickets.hpp"
#include "util/chunked_log.hpp"
#include "workload/arrival.hpp"

namespace cbs::harness {

class LookaheadController;
class TaskPool;

/// The part of a lookahead score that a rollout inherits from its parent
/// world: the parent's outcome log up to `oo.count()`, already folded. A
/// rollout is a fork, so its log starts with exactly these entries, and its
/// score folds its own into a copy of this. The sums add the same terms in
/// the same order as a full recompute, so scores stay bit-identical.
struct ScorePrefix {
  double lateness = 0.0;    ///< Σ ticket lateness over them, in log order
  cbs::sla::OoFrontier oo;  ///< their ordered output (paper Eq. 5–6)

  /// Folds in the entries of `log` past `oo.count()`. `log` must extend the
  /// log this prefix was built from (the same world, or a fork of it).
  void advance(const cbs::util::ChunkedLog<cbs::sla::JobOutcome>& log,
               const cbs::sla::TicketPolicy& policy);
};

/// A scenario's entire running state as a first-class, *forkable* value:
/// the engine, the controller (which owns the ground-truth model), the
/// scenario as built and the arrival schedule, drawn or given (these two
/// shared, immutable, across forks).
/// `run_scenario` is a thin wrapper over this class; holding the world
/// directly additionally buys
///
///  - checkpoint/resume: `run_until(t)` then `fork()` yields an independent
///    deep copy whose continuation is byte-identical to the original's
///    (the fork-equivalence contract, enforced by tests/test_fork_golden);
///  - model-predictive lookahead: with `SchedulerKind::kLookahead` every
///    batch arrival forks the world once per candidate policy, rolls each
///    fork `lookahead_horizon_seconds` forward, and commits the batch under
///    the best-scoring candidate (LookaheadController below).
///
/// Construction derives every RNG substream from (seed, name) and assigns
/// event (time, seq) pairs in one fixed order, so two worlds built from the
/// same scenario and batches run byte-identically.
class ScenarioWorld : private cbs::sim::EventTarget {
 public:
  /// Draws the scenario's batches (the generator and arrival process of
  /// §V.A) and runs them as the constructor below does.
  explicit ScenarioWorld(const Scenario& scenario);

  /// Runs `batches` (a trace, or a workload built by hand) in place of
  /// drawn ones; the scenario's arrival fields (num_batches,
  /// mean_jobs_per_batch, batch_interval_seconds) are neither read nor
  /// checked. Throws std::invalid_argument when any other scenario field is
  /// invalid, when `batches` is empty, when an arrival time is non-finite,
  /// negative, earlier than the one before it, too late for the OO series
  /// to sample (sla::kMaxSeriesSamples) or, with the lookahead horizon
  /// added, past kMaxSimSeconds, or when a doc_id is outside
  /// [1, kFirstChunkId) or given twice.
  ScenarioWorld(const Scenario& scenario,
                std::vector<cbs::workload::Batch> batches);

  /// Fork: deep-copies `src` into an independent world. The engine is
  /// copied with its pending events, and every component registers its
  /// clone on the copy in the source's order. Throws std::runtime_error if
  /// the fork registered a different number of event targets than the
  /// source had (a component that registers in one constructor and not
  /// the other — a bug, not a user error).
  ScenarioWorld(const ScenarioWorld& src);
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;
  ~ScenarioWorld();

  /// Drives the world to completion; returns the final clock.
  cbs::sim::SimTime run();

  /// Runs every event with timestamp <= `deadline`, then advances the
  /// clock to `deadline`. The natural checkpoint primitive: run_until(t),
  /// fork(), continue either copy.
  cbs::sim::SimTime run_until(cbs::sim::SimTime deadline);

  [[nodiscard]] std::unique_ptr<ScenarioWorld> fork() const {
    return std::make_unique<ScenarioWorld>(*this);
  }

  /// Validates the finished run and assembles the metrics (exactly what
  /// run_scenario returns). Throws on invariant violations.
  [[nodiscard]] RunResult result() const;

  [[nodiscard]] cbs::sim::SimTime now() const noexcept { return sim_.now(); }
  /// The scenario as built: high network variation, when set, is already
  /// applied to every EC site's links.
  [[nodiscard]] const Scenario& scenario() const noexcept { return *scenario_; }
  [[nodiscard]] const cbs::core::CloudBurstController& controller() const {
    return *controller_;
  }
  [[nodiscard]] const std::vector<cbs::workload::Batch>& batches() const noexcept {
    return *batches_;
  }

  /// Events pending in the engine.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return sim_.pending_events();
  }
  /// Batch-arrival events pending in the engine: 1 until the last batch
  /// has arrived, then 0. Only the next arrival is ever scheduled.
  [[nodiscard]] std::size_t pending_arrivals() const;

  /// The score prefix of this world's outcomes, advanced at each lookahead
  /// decision point (empty for other schedulers).
  [[nodiscard]] const ScorePrefix& score_prefix() const noexcept {
    return score_prefix_;
  }

  /// Marks this (freshly forked) world as a lookahead rollout: every
  /// in-horizon batch arrival is admitted under `kind` instead of the
  /// scenario scheduler, no nested lookahead decisions are made, and the
  /// controller's log is silenced — a hypothetical future must not write
  /// into the real run's log.
  void begin_rollout(cbs::core::SchedulerKind kind) {
    rollout_ = true;
    rollout_kind_ = kind;
    controller_->mute_log();
  }

  /// Admits one batch under policy `kind` (forwards to
  /// CloudBurstController::on_batch).
  void inject_batch_as(const cbs::workload::Batch& batch,
                       cbs::core::SchedulerKind kind) {
    controller_->on_batch(batch, kind);
  }

  /// The candidate committed at each lookahead decision point, in batch
  /// order (empty unless scheduler == kLookahead).
  [[nodiscard]] const std::vector<cbs::core::SchedulerKind>& lookahead_choices()
      const noexcept {
    return lookahead_choices_;
  }

 private:
  /// Builds over `shared_scenario` and `batches`, which the public
  /// constructors have checked.
  ScenarioWorld(
      std::shared_ptr<const Scenario> shared_scenario,
      std::shared_ptr<const std::vector<cbs::workload::Batch>> batches);

  /// The arrival of batch `index`, the world's only event.
  void on_event(std::uint32_t kind, std::uint64_t index) override;
  void deliver_batch(std::size_t index);
  /// Makes arrival `index` the pending one (none past the last batch).
  void schedule_arrival(std::size_t index);

  std::shared_ptr<const Scenario> scenario_;
  cbs::sim::Simulation sim_;
  cbs::sim::TargetId target_;
  std::unique_ptr<cbs::core::CloudBurstController> controller_;
  std::shared_ptr<const std::vector<cbs::workload::Batch>> batches_;
  /// Arrival i fires under the scheduling-order number first_arrival_seq_
  /// + i, reserved at construction; see DESIGN §12.2.
  std::uint64_t first_arrival_seq_ = 0;
  bool rollout_ = false;
  cbs::core::SchedulerKind rollout_kind_ =
      cbs::core::SchedulerKind::kOrderPreserving;
  std::vector<cbs::core::SchedulerKind> lookahead_choices_;
  ScorePrefix score_prefix_;
  /// Built at the first lookahead decision, so other schedulers, rollouts
  /// and a world that never decides start no thread.
  // cbs-lint: snapshot-complete-ok(a fork builds its own at its first decision)
  std::unique_ptr<const LookaheadController> lookahead_;
};

/// The model-predictive burst policy: at a decision point it forks the
/// live world once per candidate scheduler, injects the batch into each
/// fork, rolls the fork `horizon_seconds` forward and scores the resulting
/// trajectory; the lowest score wins (first candidate wins ties, so
/// decisions are deterministic).
///
/// The candidates' fork→inject→roll→score chains run side by side on a
/// pool the controller owns (min(candidates, hardware threads) − 1
/// workers, plus the calling thread). Each chain only reads the parent
/// (DESIGN §12.4), and the winner is picked in candidate order after all
/// have finished, so a Decision is bit-identical at any core count.
///
/// The score is an SLA-cost surrogate in "penalty seconds":
///
///   Σ ticket lateness  +  900 s × unfinished jobs
///     + 900 s × predicted EC failure risk × jobs still on the EC
///     + 3600 s per dollar of cloud bill  −  1 s per ordered output MB
///
/// Lateness and the cloud bill are the two SLA terms the paper optimizes;
/// the ordered-output credit is its OO metric (Eq. 6) evaluated at horizon
/// end; the unfinished penalty keeps a candidate from looking good by
/// merely deferring work past the horizon. The EC-risk term prices the
/// jobs a predicted crash would hit; it is exactly zero when the hazard
/// predictor is off.
class LookaheadController {
 public:
  struct Config {
    double horizon_seconds = 900.0;
    /// Candidates evaluated, a prefix of candidate_order(); in
    /// [1, kLookaheadCandidates].
    int candidates = 3;
  };

  struct Decision {
    cbs::core::SchedulerKind kind = cbs::core::SchedulerKind::kOrderPreserving;
    double score = 0.0;
    /// Every candidate's score, in evaluation order.
    std::vector<std::pair<cbs::core::SchedulerKind, double>> scores;
  };

  /// Fixed candidate priority: order-preserving, greedy, ic-only — the
  /// policies that admit into the single-class upload queues a lookahead
  /// run's sites are built with (DESIGN §12.4).
  [[nodiscard]] static std::span<const cbs::core::SchedulerKind>
  candidate_order();

  /// Starts the rollout pool's workers (none on a single hardware thread
  /// or with one candidate). Throws std::invalid_argument when
  /// `config.candidates` is outside [1, kLookaheadCandidates].
  explicit LookaheadController(Config config);
  ~LookaheadController();
  LookaheadController(const LookaheadController&) = delete;
  LookaheadController& operator=(const LookaheadController&) = delete;

  /// Evaluates the candidates for `batch` against `parent` (which is not
  /// modified — each rollout runs in its own fork). If a rollout throws,
  /// the exception of the first such candidate in order is rethrown once
  /// every rollout has finished.
  [[nodiscard]] Decision decide(const ScenarioWorld& parent,
                                const cbs::workload::Batch& batch) const;

  /// The trajectory score of a (rolled-forward) world; lower is better. The
  /// reference for score_rollout: walks the whole log, o_t by sample_at.
  [[nodiscard]] double score_world(const ScenarioWorld& world) const;

  /// score_world(rollout), bit for bit, continuing from `prefix` — the
  /// score prefix of the world `rollout` was forked from.
  [[nodiscard]] double score_rollout(const ScenarioWorld& rollout,
                                     const ScorePrefix& prefix) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  /// The score given its two outcome-log terms.
  [[nodiscard]] double score_with(const ScenarioWorld& world, double lateness,
                                  double ordered_mb) const;
  Config config_;
  std::unique_ptr<TaskPool> pool_;
};

}  // namespace cbs::harness
