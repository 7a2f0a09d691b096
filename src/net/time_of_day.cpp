#include "net/time_of_day.hpp"

#include <cmath>

namespace cbs::net {

using cbs::sim::kDay;

double day_remainder(cbs::sim::SimTime t) noexcept {
  // For 0 < t < 2^52 with n = ⌊t / kDay⌋: the rounded quotient never
  // reaches n + 1, because the double below (n + 1)·kDay is at least 2^16
  // ulps of n + 1 below it (kDay > 2^16), over kDay that is 0.76 ulp; and
  // n·kDay is an exact integer with t/2 ≤ n·kDay ≤ t, so t − n·kDay is
  // exact (Sterbenz) — fmod's exact result. Zero, negative, huge and
  // non-finite t go through fmod itself (so −0.0 keeps its sign).
  if (!(t > 0.0 && t < 0x1p52)) return std::fmod(t, kDay);
  return t - std::floor(t / kDay) * kDay;
}

std::size_t day_slot(cbs::sim::SimTime t, std::size_t slots) noexcept {
  double day_frac = day_remainder(t) / kDay;
  if (day_frac < 0.0) day_frac += 1.0;
  const auto slot =
      static_cast<std::size_t>(day_frac * static_cast<double>(slots));
  return slot % slots;
}

}  // namespace cbs::net
