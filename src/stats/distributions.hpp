#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "simcore/rng.hpp"

namespace cbs::stats {

/// Sampling routines used across the workload and network models. All take
/// the RngStream explicitly so components own their randomness (replayable
/// substreams) instead of sharing hidden global state.

/// Exponential with the given rate (events per unit time). rate > 0.
[[nodiscard]] double sample_exponential(cbs::sim::RngStream& rng, double rate);

/// Poisson-distributed count with the given mean. mean >= 0.
/// Uses Knuth multiplication for small means, normal approximation with
/// continuity correction for large ones (mean > 60).
[[nodiscard]] std::uint64_t sample_poisson(cbs::sim::RngStream& rng, double mean);

/// Standard normal via Box–Muller (polar form not needed; we can afford log).
[[nodiscard]] double sample_standard_normal(cbs::sim::RngStream& rng);

/// Normal with mean/stddev. stddev >= 0.
[[nodiscard]] double sample_normal(cbs::sim::RngStream& rng, double mean, double stddev);

/// Lognormal parameterized by the *underlying* normal's mu/sigma.
[[nodiscard]] double sample_lognormal(cbs::sim::RngStream& rng, double mu, double sigma);

/// Bounded Pareto on [lo, hi] with shape alpha — the canonical heavy-tailed
/// job-size law used in the task-assignment literature the paper cites
/// (Harchol-Balter). alpha > 0, 0 < lo < hi.
[[nodiscard]] double sample_bounded_pareto(cbs::sim::RngStream& rng, double alpha,
                                           double lo, double hi);

/// sample_bounded_pareto with its per-law constants lo^α, hi^α and −1/α
/// computed once, for a sampler that draws one law many times. Every draw
/// equals sample_bounded_pareto(rng, alpha, lo, hi) bit for bit.
class BoundedPareto {
 public:
  BoundedPareto(double alpha, double lo, double hi)
      : la_(std::pow(lo, alpha)),
        ha_(std::pow(hi, alpha)),
        exponent_(-1.0 / alpha) {
    assert(alpha > 0.0 && lo > 0.0 && hi > lo);
  }

  [[nodiscard]] double operator()(cbs::sim::RngStream& rng) const {
    const double u = rng.next_double();
    // Inverse-CDF of the bounded Pareto.
    return std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_), exponent_);
  }

 private:
  double la_;
  double ha_;
  double exponent_;
};

// The two samplers below are defined here so that the workload
// generator's per-document loop inlines them (and, for constant weights,
// folds sample_discrete's sum).

/// Triangular on [lo, hi] with the given mode.
[[nodiscard]] inline double sample_triangular(cbs::sim::RngStream& rng,
                                              double lo, double mode,
                                              double hi) {
  assert(lo <= mode && mode <= hi && lo < hi);
  const double u = rng.next_double();
  const double fc = (mode - lo) / (hi - lo);
  if (u < fc) return lo + std::sqrt(u * (hi - lo) * (mode - lo));
  return hi - std::sqrt((1.0 - u) * (hi - lo) * (hi - mode));
}

/// Samples an index in [0, weights.size()) proportionally to weights.
/// All weights must be >= 0 with a positive sum.
[[nodiscard]] inline std::size_t sample_discrete(
    cbs::sim::RngStream& rng, std::span<const double> weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  // The first index whose running remainder x - w[0] - ... - w[i] is
  // negative, or the last (a floating-point edge). The remainder never
  // rises, so that index is the count of non-negative remainders, which
  // needs no branch on the draw.
  double x = rng.next_double() * total;
  std::size_t i = 0;
  for (const double w : weights) {
    x -= w;
    i += x >= 0.0 ? 1 : 0;
  }
  return std::min(i, weights.size() - 1);
}

}  // namespace cbs::stats
