#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "simcore/time.hpp"

namespace cbs::models {

/// Which online failure predictor drives the proactive-resilience policy.
enum class HazardPredictorKind : std::uint8_t {
  kOff,   ///< no predictor; the controller stays purely reactive
  kEwma,  ///< EWMA-smoothed inter-failure intensity (recency-weighted)
  kBayes, ///< Gamma/Laplace posterior rate (exposure-weighted, prior-anchored)
};

[[nodiscard]] std::string_view to_string(HazardPredictorKind kind) noexcept;

/// The per-VM hazard model's one setting: which predictor runs. Its
/// smoothing and its prior are constants (hazard.cpp): a Laplace prior of
/// one failure per 20000 s keeps a cold VM from being trusted (or
/// condemned) on no evidence, and each observed crash moves the estimate
/// toward the empirical rate.
struct HazardModelConfig {
  HazardPredictorKind kind = HazardPredictorKind::kOff;
};

/// Online quality of the predictor's high-risk calls, scored against the
/// crashes that actually happened. A "prediction" is a flag raised on one
/// machine for a window; it resolves to a true positive (a crash landed
/// inside the window), a false positive (the window expired uneventfully)
/// or — for crashes on unflagged machines — a false negative.
struct HazardPredictionStats {
  std::uint64_t predictions = 0;      ///< high-risk flags raised
  std::uint64_t true_positives = 0;   ///< flag confirmed by an in-window crash
  std::uint64_t false_positives = 0;  ///< flag expired without a crash
  std::uint64_t false_negatives = 0;  ///< crash with no active flag

  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;

  /// Pools `other`'s counts into these (several estimators, several runs).
  HazardPredictionStats& operator+=(
      const HazardPredictionStats& other) noexcept {
    predictions += other.predictions;
    true_positives += other.true_positives;
    false_positives += other.false_positives;
    false_negatives += other.false_negatives;
    return *this;
  }
};

/// Online per-VM hazard estimator: observes each machine's crash times and
/// answers "how likely is machine m to fail within the next w seconds?".
///
/// Two estimators share the interface (HazardModelConfig::kind):
///
///  - kEwma: the hazard is the reciprocal of the EWMA of observed
///    inter-failure gaps, discounted by survival — a machine that has
///    outlived its typical gap is believed less hazardous, so drains expire
///    instead of lasting forever. Cold machines fall back to the prior rate.
///  - kBayes: the posterior-mean rate of a Gamma(prior failures, prior
///    exposure) prior under exponential gaps —
///    (failures + prior failures) / (exposure + prior exposure).
///
/// Failure probability over a window is 1 - exp(-rate * w) via expm1.
///
/// Snapshot safety (DESIGN.md §12): the estimator is pure value state — no
/// EventIds, no component references, no hooks — so a fork clones it with
/// the implicit copy constructor and nothing needs re-registration.
class VmHazardEstimator {
 public:
  VmHazardEstimator(const HazardModelConfig& config, std::size_t machines,
                    cbs::sim::SimTime start = 0.0);

  /// Grows the tracked machine set (elastic clusters); new machines start
  /// cold with exposure metered from `now`. No-op if already that large.
  void ensure_machines(std::size_t machines, cbs::sim::SimTime now);

  /// Records a crash of `machine` at `now` and resolves any outstanding
  /// high-risk flag on it (true positive if the crash landed in the flag's
  /// window; the crash is a false negative otherwise).
  void on_failure(std::size_t machine, cbs::sim::SimTime now);

  /// Believed failure rate (per second) of `machine` at `now`.
  [[nodiscard]] double hazard_rate(std::size_t machine,
                                   cbs::sim::SimTime now) const;

  /// Believed probability that `machine` fails within `window_seconds`.
  [[nodiscard]] double failure_probability(std::size_t machine,
                                           cbs::sim::SimTime now,
                                           double window_seconds) const;

  /// Raises (or extends) the high-risk flag on `machine` until
  /// now + window_seconds. Only a fresh flag counts as a new prediction.
  void note_prediction(std::size_t machine, cbs::sim::SimTime now,
                       double window_seconds);

  /// Expires stale flags whose window passed without a crash (each becomes
  /// a false positive). Call at every policy-evaluation point; expiry is
  /// lazy, so stats are exact only up to the last settle()/on_failure().
  void settle(cbs::sim::SimTime now);

  [[nodiscard]] bool flagged(std::size_t machine) const;
  [[nodiscard]] std::uint64_t failures(std::size_t machine) const;
  [[nodiscard]] std::size_t machine_count() const noexcept {
    return machines_.size();
  }
  [[nodiscard]] const HazardPredictionStats& stats() const noexcept {
    return stats_;
  }

 private:
  struct MachineState {
    std::uint64_t failures = 0;
    /// Exposure anchor: registration time, then the last failure time.
    cbs::sim::SimTime last_event = 0.0;
    /// EWMA of inter-failure gaps (S_n = a*y + (1-a)*S_{n-1}).
    double gap_ewma = 0.0;
    bool has_gap = false;
    bool flag_active = false;
    cbs::sim::SimTime flag_until = 0.0;
  };

  HazardPredictorKind kind_;
  cbs::sim::SimTime start_ = 0.0;
  std::vector<MachineState> machines_;
  HazardPredictionStats stats_;
};

/// Mean failure probability over all tracked machines — the cluster-level
/// risk signal the burst policy prices in.
[[nodiscard]] double mean_failure_probability(const VmHazardEstimator& est,
                                              cbs::sim::SimTime now,
                                              double window_seconds);

}  // namespace cbs::models
