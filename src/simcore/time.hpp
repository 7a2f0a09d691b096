#pragma once

#include <cmath>
#include <limits>

namespace cbs::sim {

/// Simulated time in seconds since the start of the run.
///
/// A plain double keeps the engine simple and fast; all schedulers and
/// metrics operate on differences and ratios, so absolute precision loss at
/// large magnitudes is irrelevant for the horizons we simulate (hours).
using SimTime = double;

/// Duration in simulated seconds.
using SimDuration = double;

inline constexpr SimTime kTimeZero = 0.0;
inline constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

/// Seconds in common units, for readable scenario configuration.
inline constexpr SimDuration kSecond = 1.0;
inline constexpr SimDuration kMinute = 60.0;
inline constexpr SimDuration kHour = 3600.0;
inline constexpr SimDuration kDay = 86400.0;

/// True when `t` is a usable event timestamp (finite and non-negative).
[[nodiscard]] inline bool is_valid_time(SimTime t) noexcept {
  return std::isfinite(t) && t >= 0.0;
}

/// The delay before retry `n` (0-based) of an exponential backoff that
/// waits `first` and doubles each time: first × 2^n. Doubling is exact in
/// floating point, so this equals multiplying by 2.0 n times.
[[nodiscard]] inline SimDuration doubling_backoff(SimDuration first,
                                                  int n) noexcept {
  return std::ldexp(first, n);
}

}  // namespace cbs::sim
