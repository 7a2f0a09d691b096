#pragma once

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

/// Triangular on [lo, hi] with the given mode.
[[nodiscard]] double sample_triangular(cbs::sim::RngStream& rng, double lo,
                                       double mode, double hi);

/// Samples an index in [0, weights.size()) proportionally to weights.
/// All weights must be >= 0 with a positive sum.
[[nodiscard]] std::size_t sample_discrete(cbs::sim::RngStream& rng,
                                          std::span<const double> weights);

}  // namespace cbs::stats
