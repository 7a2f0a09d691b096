#include "stats/distributions.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace cbs::stats {

using cbs::sim::RngStream;

double sample_exponential(RngStream& rng, double rate) {
  assert(rate > 0.0);
  // 1 - u avoids log(0); u in [0,1) so 1-u in (0,1].
  return -std::log(1.0 - rng.next_double()) / rate;
}

std::uint64_t sample_poisson(RngStream& rng, double mean) {
  assert(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean > 60.0) {
    // Normal approximation with continuity correction; error is negligible
    // at this mean for simulation purposes.
    const double x = mean + std::sqrt(mean) * sample_standard_normal(rng);
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(x));
  }
  const double limit = std::exp(-mean);
  std::uint64_t k = 0;
  double prod = rng.next_double();
  while (prod > limit) {
    ++k;
    prod *= rng.next_double();
  }
  return k;
}

double sample_standard_normal(RngStream& rng) {
  const double u1 = 1.0 - rng.next_double();  // (0,1]
  const double u2 = rng.next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double sample_normal(RngStream& rng, double mean, double stddev) {
  assert(stddev >= 0.0);
  return mean + stddev * sample_standard_normal(rng);
}

double sample_lognormal(RngStream& rng, double mu, double sigma) {
  return std::exp(sample_normal(rng, mu, sigma));
}

double sample_bounded_pareto(RngStream& rng, double alpha, double lo, double hi) {
  return BoundedPareto(alpha, lo, hi)(rng);
}

}  // namespace cbs::stats
