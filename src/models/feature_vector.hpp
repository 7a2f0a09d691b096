#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string_view>

#include "workload/document.hpp"

namespace cbs::models {

/// Number of raw numeric features extracted from a document for the QRSM.
inline constexpr std::size_t kNumRawFeatures = 8;

/// Names of the raw features, index-aligned with extract_raw().
[[nodiscard]] const std::array<std::string_view, kNumRawFeatures>& feature_names();

/// Raw feature vector (paper §III.A.1's x_i dimensions): document size,
/// pages, image count, image size, resolution, color fraction, text ratio,
/// coverage. Job type influences the workload's *output* characteristics
/// and is handled outside the response surface.
[[nodiscard]] std::array<double, kNumRawFeatures> extract_raw(
    const cbs::workload::DocumentFeatures& f);

/// Dimension of the full quadratic expansion of n raw features:
/// 1 (intercept) + n (linear) + n(n-1)/2 (interactions) + n (squares).
[[nodiscard]] constexpr std::size_t quadratic_dim(std::size_t n) {
  return 1 + n + n * (n - 1) / 2 + n;
}

/// Width of the QRSM design row over the raw features.
inline constexpr std::size_t kQuadraticDim = quadratic_dim(kNumRawFeatures);
using QuadraticRow = std::array<double, kQuadraticDim>;

/// Full quadratic design row y = a + Σ bᵢxᵢ + Σ cᵢⱼxᵢxⱼ + Σ dᵢxᵢ², laid out
/// as [1, x₁..xₙ, x₁x₂, x₁x₃, ..., xₙ₋₁xₙ, x₁², ..., xₙ²].
[[nodiscard]] QuadraticRow quadratic_expand(
    const std::array<double, kNumRawFeatures>& x);

/// Affine per-feature standardization (z = (x - mean) / scale) fitted on a
/// training corpus; keeps the quadratic design matrix well-conditioned.
struct FeatureScaler {
  /// Standard deviations at or below this count as a constant feature.
  static constexpr double kMinScale = 1e-12;

  std::array<double, kNumRawFeatures> mean{};
  std::array<double, kNumRawFeatures> scale{};  // never zero

  /// Fits mean/scale on a corpus: any range whose elements hold a row,
  /// with `raw_of(element)` returning its raw feature array. Constant
  /// features get scale 1.
  template <typename Rows, typename RawOf = std::identity>
  static FeatureScaler fit(const Rows& rows, RawOf raw_of = {});

  [[nodiscard]] std::array<double, kNumRawFeatures> apply(
      const std::array<double, kNumRawFeatures>& x) const;
};

template <typename Rows, typename RawOf>
FeatureScaler FeatureScaler::fit(const Rows& rows, RawOf raw_of) {
  FeatureScaler s;
  s.scale.fill(1.0);
  if (rows.empty()) return s;

  const auto n = static_cast<double>(rows.size());
  for (const auto& row : rows) {
    const auto& r = raw_of(row);
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) s.mean[i] += r[i];
  }
  for (double& m : s.mean) m /= n;

  std::array<double, kNumRawFeatures> var{};
  for (const auto& row : rows) {
    const auto& r = raw_of(row);
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
      const double d = r[i] - s.mean[i];
      var[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    const double sd = std::sqrt(var[i] / n);
    s.scale[i] = sd > kMinScale ? sd : 1.0;
  }
  return s;
}

}  // namespace cbs::models
