#include "net/bandwidth_profile.hpp"

#include <cassert>
#include <cmath>

#include "net/time_of_day.hpp"

namespace cbs::net {

using cbs::sim::kDay;
using cbs::sim::SimTime;

DiurnalProfile::DiurnalProfile(std::vector<double> anchors)
    : anchors_(std::move(anchors)) {
  assert(!anchors_.empty());
  for ([[maybe_unused]] double a : anchors_) assert(a > 0.0);
}

DiurnalProfile DiurnalProfile::business_pipe() {
  // Hourly multipliers starting at midnight: night is fast, 9-17h is slow.
  return DiurnalProfile({
      1.40, 1.45, 1.50, 1.50, 1.45, 1.35,  // 00-05
      1.20, 1.05, 0.90, 0.75, 0.70, 0.65,  // 06-11
      0.60, 0.62, 0.65, 0.70, 0.75, 0.85,  // 12-17
      1.00, 1.10, 1.20, 1.25, 1.30, 1.35,  // 18-23
  });
}

DiurnalProfile DiurnalProfile::flat() { return DiurnalProfile({1.0}); }

double DiurnalProfile::multiplier_at(SimTime t) const {
  const std::size_t n = anchors_.size();
  if (n == 1) return anchors_[0];
  double day_frac = day_remainder(t) / kDay;
  if (day_frac < 0.0) day_frac += 1.0;
  const double pos = day_frac * static_cast<double>(n);
  const auto idx = static_cast<std::size_t>(pos) % n;
  const std::size_t next = (idx + 1) % n;
  const double frac = pos - std::floor(pos);
  return anchors_[idx] * (1.0 - frac) + anchors_[next] * frac;
}

double throttle_factor(const std::vector<ThrottleEpisode>& episodes, SimTime t) {
  double f = 1.0;
  for (const auto& e : episodes) {
    assert(e.factor > 0.0 && e.factor <= 1.0);
    if (t >= e.start && t < e.end) f *= e.factor;
  }
  return f;
}

}  // namespace cbs::net
