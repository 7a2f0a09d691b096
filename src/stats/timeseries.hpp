#pragma once

#include <cstddef>
#include <vector>

#include "simcore/time.hpp"

namespace cbs::stats {

/// A (time, value) point of a sampled metric.
struct TimePoint {
  cbs::sim::SimTime time;
  double value;
};

/// Append-only series of timestamped observations with the resampling
/// helpers the OO-metric figures need (fixed sampling intervals).
class TimeSeries {
 public:
  void add(cbs::sim::SimTime t, double value);

  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const std::vector<TimePoint>& points() const noexcept { return points_; }
  [[nodiscard]] const TimePoint& at(std::size_t i) const { return points_.at(i); }
  [[nodiscard]] const TimePoint& back() const { return points_.back(); }

  /// Last value at or before `t`; `fallback` when no such point exists.
  /// Treats the series as a step function (right-continuous), which matches
  /// cumulative metrics like "ordered bytes available so far".
  [[nodiscard]] double value_at(cbs::sim::SimTime t, double fallback = 0.0) const;

  /// Step-function resampling at times start, start+dt, ..., <= end.
  [[nodiscard]] std::vector<TimePoint> resample(cbs::sim::SimTime start,
                                                cbs::sim::SimTime end,
                                                cbs::sim::SimDuration dt) const;

  /// Time-weighted average of the step function over [t0, t1].
  [[nodiscard]] double time_average(cbs::sim::SimTime t0, cbs::sim::SimTime t1) const;

 private:
  std::vector<TimePoint> points_;  // strictly non-decreasing in time
};

}  // namespace cbs::stats
