#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "models/feature_vector.hpp"
#include "workload/document.hpp"

namespace cbs::models {

/// A QRSM surface and its goodness of fit on the window it was fitted on.
struct QrsmFit {
  QuadraticRow coefficients{};  ///< over quadratic_expand's columns
  double r_squared = 0.0;       ///< 1 - SS_res / SS_tot
  double rmse = 0.0;            ///< sqrt(mean squared residual)
};

/// Quadratic Response Surface Model for processing time (paper §III.A.1):
///
///   y = a + Σ bᵢxᵢ + Σ cᵢⱼxᵢxⱼ + Σ dᵢxᵢ²
///
/// over the standardized document features. The model is fitted by ridge
/// least squares ("learnt as the solution to a linear programming model" in
/// the paper; we use the standard response-surface fitting of Myers &
/// Montgomery, which is penalized least squares) and re-tuned online from
/// observed (features, actual runtime) pairs, exactly the autonomic loop
/// the paper describes: start from a factory prior trained on a standard
/// corpus, then adapt to the deployment.
///
/// The online loop never rebuilds the design matrix. The window's normal
/// equations are kept as running sums of the distinct monomials they are
/// made of, in a fixed reference scaling, and carried onto each refit's
/// scaling by an exact change of basis (DESIGN.md §9, "Incremental QRSM").
class QrsmModel {
 public:
  struct Config {
    double ridge_lambda = 1.0e-3;
    /// Online buffer: every observation adds its monomials to the moments
    /// of the last `window` pairs (0 keeps all) and subtracts those of the
    /// pair that leaves; every `refit_interval` observations the surface is
    /// re-solved from those moments.
    std::size_t refit_interval = 32;
    std::size_t window = 4096;
    /// Predictions are clamped below by this (a job is never free).
    double min_prediction_seconds = 1.0;
  };

  QrsmModel() : QrsmModel(Config{}) {}
  explicit QrsmModel(Config config);

  /// Fits from scratch on a labeled corpus. Requires at least
  /// `quadratic_dim(kNumRawFeatures)` rows. Replaces any previous state and
  /// seeds the online buffer with the corpus.
  void fit(const std::vector<cbs::workload::DocumentFeatures>& features,
           const std::vector<double>& runtimes);

  /// Records an observed (features, runtime) pair; refits automatically
  /// every `refit_interval` observations once enough data exists.
  void observe(const cbs::workload::DocumentFeatures& features, double runtime);

  /// Predicted processing seconds on a standard machine. Falls back to the
  /// mean observed runtime (or min_prediction_seconds) before the first fit.
  [[nodiscard]] double predict(const cbs::workload::DocumentFeatures& features) const;

  [[nodiscard]] bool is_fitted() const noexcept { return fit_.has_value(); }
  /// The surface and its goodness of fit (from the moments) on the most
  /// recent training window.
  [[nodiscard]] const std::optional<QrsmFit>& last_fit() const noexcept {
    return fit_;
  }
  [[nodiscard]] std::size_t observations() const noexcept { return total_observed_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size(); }
  /// Refits whose normal equations were not positive definite (a
  /// rank-deficient window with ridge_lambda = 0). Each kept the previous
  /// fit, and its scaling, unchanged.
  [[nodiscard]] std::size_t refit_failures() const noexcept {
    return refit_failures_;
  }
  /// Rows added to or removed from the moments so far, the rows of every
  /// rebuild included: a host-independent measure of the model's work.
  [[nodiscard]] std::size_t moment_rows() const noexcept {
    return moment_rows_;
  }

  /// Forces a refit on the current buffer (no-op when data is insufficient).
  void refit();

 private:
  struct Example {
    std::array<double, kNumRawFeatures> raw;
    double y;
  };

  /// Distinct monomials of degree ≤ 4 in the features,
  /// C(kNumRawFeatures + 4, 4): every entry of φφᵀ is one of them.
  static constexpr std::size_t kNumMonomials =
      (kNumRawFeatures + 4) * (kNumRawFeatures + 3) * (kNumRawFeatures + 2) *
      (kNumRawFeatures + 1) / 24;

  /// Adds (sign = +1) or removes (sign = -1) the terms of N pairs in the
  /// moments, in one pass over the sums.
  template <std::size_t N>
  void accumulate(const std::array<const Example*, N>& rows,
                  const std::array<double, N>& signs);
  /// Re-anchors `ref_` on the current window and recomputes the moments
  /// from the buffer, discarding the rounding drift of the updates.
  void rebuild_moments();
  /// Whether the updates since the last rebuild may have rounded the
  /// moments by more than kMaxRelativeDrift of their scale.
  [[nodiscard]] bool drifted() const;
  /// The window's FeatureScaler, derived from the moments.
  [[nodiscard]] FeatureScaler scaler_from_moments() const;
  /// The fitted surface before clamping.
  [[nodiscard]] double surface(const std::array<double, kNumRawFeatures>& raw) const;

  Config config_;
  /// The window's pairs, oldest first.
  std::deque<Example> buffer_;
  std::size_t total_observed_ = 0;
  std::size_t since_refit_ = 0;
  FeatureScaler scaler_;

  // The window's moments, in the reference scaling ref_: with
  // x = [1, ref_.apply(raw)], mono_ holds Σ of every degree-4 product of
  // x's entries (so of every monomial of degree ≤ 4 in the scaled
  // features) and xty_ holds Σ of every degree-2 product times y, both in
  // the suffix layout of qrsm.cpp; plus Σy². Σy is xty_[0].
  FeatureScaler ref_;
  std::array<double, kNumMonomials> mono_{};
  std::array<double, kQuadraticDim> xty_{};
  double sum_y2_ = 0.0;
  bool anchored_ = false;  ///< false until the first refit builds the moments
  // The rounding bound: the window's feature and label mass (Σ of a bound
  // on each row's largest monomial, and Σy²) and, since the last rebuild,
  // the sum of those masses after every update.
  double mass_x_ = 0.0;
  double mass_y_ = 0.0;
  double drift_x_ = 0.0;
  double drift_y_ = 0.0;
  std::size_t moment_rows_ = 0;
  std::size_t refit_failures_ = 0;

  std::optional<QrsmFit> fit_;
};

}  // namespace cbs::models
