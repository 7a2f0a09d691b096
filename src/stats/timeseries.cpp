#include "stats/timeseries.hpp"

#include <algorithm>
#include <cassert>

namespace cbs::stats {

using cbs::sim::SimDuration;
using cbs::sim::SimTime;

void TimeSeries::add(SimTime t, double value) {
  assert((points_.empty() || t >= points_.back().time) &&
         "TimeSeries requires non-decreasing timestamps");
  points_.push_back({t, value});
}

double TimeSeries::value_at(SimTime t, double fallback) const {
  // First point strictly after t, then step back one.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime lhs, const TimePoint& p) { return lhs < p.time; });
  if (it == points_.begin()) return fallback;
  return std::prev(it)->value;
}

std::vector<TimePoint> TimeSeries::resample(SimTime start, SimTime end,
                                            SimDuration dt) const {
  assert(dt > 0.0 && end >= start);
  std::vector<TimePoint> out;
  out.reserve(static_cast<std::size_t>((end - start) / dt) + 1);
  for (SimTime t = start; t <= end + 1e-9; t += dt) {
    out.push_back({t, value_at(t)});
  }
  return out;
}

double TimeSeries::time_average(SimTime t0, SimTime t1) const {
  assert(t1 > t0);
  double area = 0.0;
  SimTime cursor = t0;
  double current = value_at(t0);
  for (const auto& p : points_) {
    if (p.time <= t0) continue;
    if (p.time >= t1) break;
    area += current * (p.time - cursor);
    cursor = p.time;
    current = p.value;
  }
  area += current * (t1 - cursor);
  return area / (t1 - t0);
}

}  // namespace cbs::stats
