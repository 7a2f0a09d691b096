#include "models/hazard.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cbs::models {

using cbs::sim::SimTime;

namespace {

/// EWMA smoothing of inter-failure gaps (same update rule as net::Ewma).
constexpr double kEwmaAlpha = 0.3;
/// Pseudo-failures of the Laplace/Gamma prior.
constexpr double kPriorFailures = 1.0;
/// Pseudo-exposure of the prior, seconds. kPriorFailures over this is the
/// believed rate of a machine with no failure history.
constexpr double kPriorExposureSeconds = 20000.0;
constexpr double kPriorRate = kPriorFailures / kPriorExposureSeconds;
/// Floor applied to observed inter-failure gaps and exposure terms so
/// clock-adjacent failures (gap 0) never produce an infinite rate.
constexpr double kMinGapSeconds = 1.0;

}  // namespace

std::string_view to_string(HazardPredictorKind kind) noexcept {
  switch (kind) {
    case HazardPredictorKind::kOff:
      return "off";
    case HazardPredictorKind::kEwma:
      return "ewma";
    case HazardPredictorKind::kBayes:
      return "bayes";
  }
  return "?";
}

double HazardPredictionStats::precision() const noexcept {
  const std::uint64_t resolved = true_positives + false_positives;
  if (resolved == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(resolved);
}

double HazardPredictionStats::recall() const noexcept {
  const std::uint64_t crashes = true_positives + false_negatives;
  if (crashes == 0) return 0.0;
  return static_cast<double>(true_positives) / static_cast<double>(crashes);
}

VmHazardEstimator::VmHazardEstimator(const HazardModelConfig& config,
                                     std::size_t machines, SimTime start)
    : kind_(config.kind), start_(start) {
  machines_.reserve(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    MachineState s;
    s.last_event = start;
    machines_.push_back(s);
  }
}

void VmHazardEstimator::ensure_machines(std::size_t machines, SimTime now) {
  while (machines_.size() < machines) {
    MachineState s;
    s.last_event = now;
    machines_.push_back(s);
  }
}

void VmHazardEstimator::on_failure(std::size_t machine, SimTime now) {
  assert(machine < machines_.size());
  MachineState& s = machines_[machine];
  // Resolve the outstanding flag against this crash before updating the
  // model: a crash inside the flagged window is the prediction coming true.
  if (s.flag_active && now <= s.flag_until) {
    ++stats_.true_positives;
    s.flag_active = false;
  } else {
    if (s.flag_active) {
      // Flag expired before the crash landed — settle() just hadn't run.
      ++stats_.false_positives;
      s.flag_active = false;
    }
    ++stats_.false_negatives;
  }
  // Clock-adjacent failures (gap <= 0, e.g. a crash at the recovery
  // instant) are floored instead of poisoning the rate with an infinity.
  const double gap = std::max(now - s.last_event, kMinGapSeconds);
  if (s.has_gap) {
    s.gap_ewma = kEwmaAlpha * gap + (1.0 - kEwmaAlpha) * s.gap_ewma;
  } else {
    s.gap_ewma = gap;
    s.has_gap = true;
  }
  ++s.failures;
  s.last_event = now;
}

double VmHazardEstimator::hazard_rate(std::size_t machine, SimTime now) const {
  assert(machine < machines_.size());
  const MachineState& s = machines_[machine];
  switch (kind_) {
    case HazardPredictorKind::kOff:
      return 0.0;
    case HazardPredictorKind::kEwma: {
      if (!s.has_gap) return kPriorRate;
      // Survival discount: a machine that has already outlived its typical
      // gap is believed less hazardous, so the estimate (and any drain it
      // caused) decays instead of persisting forever.
      const double survival = now - s.last_event;
      const double effective_gap =
          std::max({s.gap_ewma, survival, kMinGapSeconds});
      return 1.0 / effective_gap;
    }
    case HazardPredictorKind::kBayes: {
      const double exposure =
          std::max(now - start_, 0.0) + kPriorExposureSeconds;
      return (static_cast<double>(s.failures) + kPriorFailures) /
             std::max(exposure, kMinGapSeconds);
    }
  }
  return 0.0;
}

double VmHazardEstimator::failure_probability(std::size_t machine, SimTime now,
                                              double window_seconds) const {
  const double window = std::max(window_seconds, 0.0);
  const double rate = hazard_rate(machine, now);
  // P(fail within w) = 1 - exp(-rate * w); expm1 keeps small rates exact.
  return -std::expm1(-rate * window);
}

void VmHazardEstimator::note_prediction(std::size_t machine, SimTime now,
                                        double window_seconds) {
  assert(machine < machines_.size());
  MachineState& s = machines_[machine];
  if (!s.flag_active) {
    s.flag_active = true;
    ++stats_.predictions;
    s.flag_until = now + std::max(window_seconds, 0.0);
    return;
  }
  // Re-affirmed while still active: extend the window, no new prediction.
  s.flag_until = std::max(s.flag_until, now + std::max(window_seconds, 0.0));
}

void VmHazardEstimator::settle(SimTime now) {
  for (MachineState& s : machines_) {
    if (s.flag_active && now > s.flag_until) {
      s.flag_active = false;
      ++stats_.false_positives;
    }
  }
}

bool VmHazardEstimator::flagged(std::size_t machine) const {
  assert(machine < machines_.size());
  return machines_[machine].flag_active;
}

std::uint64_t VmHazardEstimator::failures(std::size_t machine) const {
  assert(machine < machines_.size());
  return machines_[machine].failures;
}

double mean_failure_probability(const VmHazardEstimator& est, SimTime now,
                                double window_seconds) {
  if (est.machine_count() == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t m = 0; m < est.machine_count(); ++m) {
    sum += est.failure_probability(m, now, window_seconds);
  }
  return sum / static_cast<double>(est.machine_count());
}

}  // namespace cbs::models
