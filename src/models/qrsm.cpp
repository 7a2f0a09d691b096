#include "models/qrsm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

#include "linalg/cholesky.hpp"

namespace cbs::models {

using cbs::linalg::Matrix;
using cbs::linalg::Vector;

namespace {

/// Refits between two rebuilds of the moments from the buffer. A rebuild
/// costs one Gram pass over the window; in between, the rank-1 updates
/// and downdates add rounding drift, and the rebuild discards it.
constexpr std::size_t kRefitsPerRebuild = 64;

/// The change of basis is used only while the window's scaling stays this
/// close to the reference one: per-feature scale ratios within
/// [1/kMaxScaleRatio, kMaxScaleRatio] and mean shifts within kMaxMeanShift
/// current standard deviations. Further out the map's quartic terms would
/// amplify the moments' rounding, so the refit rebuilds them instead.
constexpr double kMaxScaleRatio = 2.0;
constexpr double kMaxMeanShift = 1.0;

using RawFeatures = std::array<double, kNumRawFeatures>;

/// The matrix T with quadratic_expand(a⊙z₀ + d) = T·quadratic_expand(z₀),
/// row by row in quadratic_expand's layout: zᵢ = aᵢz₀ᵢ + dᵢ; zᵢzⱼ expands
/// into z₀ᵢz₀ⱼ, z₀ᵢ, z₀ⱼ and 1; zᵢ² into z₀ᵢ², z₀ᵢ and 1. At most four
/// nonzeros per row, which Matrix::operator* skips over when T is on the
/// left.
Matrix basis_change(const RawFeatures& a, const RawFeatures& d) {
  constexpr std::size_t n = kNumRawFeatures;
  Matrix t(kQuadraticDim, kQuadraticDim);
  std::size_t p = 0;
  t(p++, 0) = 1.0;
  for (std::size_t i = 0; i < n; ++i, ++p) {
    t(p, 1 + i) = a[i];
    t(p, 0) = d[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      t(p, p) = a[i] * a[j];
      t(p, 1 + i) = a[i] * d[j];
      t(p, 1 + j) = d[i] * a[j];
      t(p, 0) = d[i] * d[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i, ++p) {
    t(p, p) = a[i] * a[i];
    t(p, 1 + i) = 2.0 * a[i] * d[i];
    t(p, 0) = d[i] * d[i];
  }
  assert(p == kQuadraticDim);
  return t;
}

}  // namespace

QrsmModel::QrsmModel(Config config) : config_(config) {
  assert(config.ridge_lambda >= 0.0);
  assert(config.refit_interval > 0);
  assert(config.min_prediction_seconds >= 0.0);
}

void QrsmModel::fit(const std::vector<cbs::workload::DocumentFeatures>& features,
                    const std::vector<double>& runtimes) {
  assert(features.size() == runtimes.size());
  fill_mape();  // the previous fit stays complete if this one cannot run
  buffer_.clear();
  evicted_ = 0;
  anchored_ = false;
  for (std::size_t i = 0; i < features.size(); ++i) {
    buffer_.push_back(Example{extract_raw(features[i]), runtimes[i]});
    if (config_.window > 0 && buffer_.size() > config_.window) buffer_.pop_front();
  }
  total_observed_ += features.size();
  since_refit_ = 0;
  refit();
}

void QrsmModel::observe(const cbs::workload::DocumentFeatures& features,
                        double runtime) {
  assert(runtime >= 0.0);
  buffer_.push_back(Example{extract_raw(features), runtime});
  if (anchored_) accumulate(buffer_.back(), 1.0);
  if (config_.window > 0 && buffered() > config_.window) {
    if (anchored_) accumulate(buffer_[evicted_], -1.0);
    ++evicted_;
    // Rows out of the window wait only for the pending MAPE, and never
    // more than one window's worth of them.
    if (evicted_ >= config_.window) fill_mape();
    if (!mape_pending_) drop_evicted();
  }
  ++total_observed_;
  if (++since_refit_ >= config_.refit_interval) {
    refit();
  }
}

void QrsmModel::accumulate(const Example& ex, double sign) {
  const QuadraticRow phi = quadratic_expand(ref_.apply(ex.raw));
  for (std::size_t i = 0; i < kQuadraticDim; ++i) {
    const double s = sign * phi[i];
    double* g = gram0_.row_data(i);
    for (std::size_t j = i; j < kQuadraticDim; ++j) g[j] += s * phi[j];
    xty0_[i] += s * ex.y;
  }
  sum_y_ += sign * ex.y;
  sum_y2_ += sign * ex.y * ex.y;
}

void QrsmModel::rebuild_moments() {
  assert(evicted_ == 0);
  ref_ = FeatureScaler::fit(
      buffer_, [](const Example& ex) -> const RawFeatures& { return ex.raw; });
  gram0_ = Matrix(kQuadraticDim, kQuadraticDim);
  xty0_.assign(kQuadraticDim, 0.0);
  sum_y_ = 0.0;
  sum_y2_ = 0.0;
  for (const Example& ex : buffer_) accumulate(ex, 1.0);
  anchored_ = true;
  refits_since_rebuild_ = 0;
}

FeatureScaler QrsmModel::scaler_from_moments() const {
  // Σz₀ᵢ and Σz₀ᵢ² are entries of the Gram matrix: row 0 pairs each
  // column with the intercept, and column 1+i holds z₀ᵢ itself.
  const auto n = static_cast<double>(buffered());
  FeatureScaler s;
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    const double mean_z = gram0_(0, 1 + i) / n;
    const double var_z =
        std::max(0.0, gram0_(1 + i, 1 + i) / n - mean_z * mean_z);
    s.mean[i] = ref_.mean[i] + ref_.scale[i] * mean_z;
    const double sd = ref_.scale[i] * std::sqrt(var_z);
    s.scale[i] = sd > FeatureScaler::kMinScale ? sd : 1.0;
  }
  return s;
}

void QrsmModel::refit() {
  since_refit_ = 0;
  // Require modest oversampling before trusting a quadratic surface.
  if (buffered() < kQuadraticDim + kQuadraticDim / 4) return;
  mape_pending_ = false;  // the fit it belonged to is being replaced
  drop_evicted();

  // z = (x − m)/s and z₀ = (x − m₀)/s₀ give z = a⊙z₀ + d with a = s₀/s
  // and d = (m₀ − m)/s.
  RawFeatures a{};
  RawFeatures d{};
  bool rebuild = !anchored_ || refits_since_rebuild_ >= kRefitsPerRebuild;
  if (!rebuild) {
    scaler_ = scaler_from_moments();
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
      a[i] = ref_.scale[i] / scaler_.scale[i];
      d[i] = (ref_.mean[i] - scaler_.mean[i]) / scaler_.scale[i];
      rebuild = rebuild || a[i] > kMaxScaleRatio ||
                a[i] < 1.0 / kMaxScaleRatio || std::abs(d[i]) > kMaxMeanShift;
    }
  }
  if (rebuild) {
    rebuild_moments();
    scaler_ = ref_;
    a.fill(1.0);
    d.fill(0.0);
  }
  ++refits_since_rebuild_;

  // G = T·G₀·Tᵀ, formed as T·(T·G₀)ᵀ since G₀ is symmetric; b = T·b₀.
  Matrix g0 = gram0_;
  for (std::size_t i = 0; i < kQuadraticDim; ++i) {
    for (std::size_t j = 0; j < i; ++j) g0(i, j) = g0(j, i);
  }
  const Matrix t = basis_change(a, d);
  const Matrix gram = t * (t * g0).transposed();
  const Vector xty = t * xty0_;
  Matrix ridged = gram;
  for (std::size_t i = 0; i < kQuadraticDim; ++i) {
    ridged(i, i) += config_.ridge_lambda;
  }
  auto beta = cbs::linalg::solve_spd(ridged, xty);
  if (!beta) {
    refit_from_design();
    return;
  }

  // SS_res = yᵀy − 2βᵀXᵀy + βᵀXᵀXβ, all from the moments.
  const Vector g_beta = gram * *beta;
  const double ss_res = std::max(
      0.0, sum_y2_ - 2.0 * cbs::linalg::dot(*beta, xty) +
               cbs::linalg::dot(*beta, g_beta));
  const auto n = static_cast<double>(buffered());
  const double ss_tot = sum_y2_ - sum_y_ * sum_y_ / n;

  cbs::linalg::FitResult fit;
  fit.coefficients = std::move(*beta);
  fit.rmse = std::sqrt(ss_res / n);
  fit.r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  fit_ = std::move(fit);
  fit_rows_ = buffer_.size();
  mape_pending_ = true;
}

void QrsmModel::refit_from_design() {
  Matrix design(buffer_.size(), kQuadraticDim);
  Vector y(buffer_.size());
  for (std::size_t r = 0; r < buffer_.size(); ++r) {
    const QuadraticRow row = quadratic_expand(scaler_.apply(buffer_[r].raw));
    std::copy(row.begin(), row.end(), design.row_data(r));
    y[r] = buffer_[r].y;
  }
  fit_ = cbs::linalg::ridge_least_squares(design, y, config_.ridge_lambda);
}

double QrsmModel::surface(const RawFeatures& raw) const {
  const QuadraticRow row = quadratic_expand(scaler_.apply(raw));
  double y = 0.0;
  for (std::size_t j = 0; j < kQuadraticDim; ++j) {
    y += row[j] * fit_->coefficients[j];
  }
  return y;
}

void QrsmModel::fill_mape() const {
  if (!mape_pending_) return;
  mape_pending_ = false;
  // Same definition as ridge_least_squares: rows with y = 0 are skipped.
  double ape_sum = 0.0;
  std::size_t ape_n = 0;
  for (std::size_t r = 0; r < fit_rows_; ++r) {
    const Example& ex = buffer_[r];
    if (std::abs(ex.y) > 1e-12) {
      ape_sum += std::abs((ex.y - surface(ex.raw)) / ex.y);
      ++ape_n;
    }
  }
  fit_->mape = ape_n == 0 ? 0.0 : ape_sum / static_cast<double>(ape_n);
}

void QrsmModel::drop_evicted() {
  buffer_.erase(buffer_.begin(),
                std::next(buffer_.begin(), static_cast<std::ptrdiff_t>(evicted_)));
  evicted_ = 0;
}

double QrsmModel::predict(const cbs::workload::DocumentFeatures& features) const {
  if (!fit_) {
    // Cold start: mean of whatever has been seen, else the configured floor.
    double fallback = config_.min_prediction_seconds;
    if (buffered() > 0) {
      double sum = 0.0;
      for (std::size_t r = evicted_; r < buffer_.size(); ++r) sum += buffer_[r].y;
      fallback = sum / static_cast<double>(buffered());
    }
    return std::max(fallback, config_.min_prediction_seconds);
  }
  return std::max(surface(extract_raw(features)),
                  config_.min_prediction_seconds);
}

}  // namespace cbs::models
