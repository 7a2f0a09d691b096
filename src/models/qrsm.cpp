#include "models/qrsm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "linalg/cholesky.hpp"

namespace cbs::models {

namespace {

/// The moments are re-anchored once the updates since the last rebuild
/// may have rounded them by this much relative to their scale. The bound
/// is a worst case, a sum of unit roundoffs; the error it stands for grows
/// far more slowly in practice (DESIGN.md §9).
constexpr double kMaxRelativeDrift = 1.0e-10;
constexpr double kUnitRoundoff = 0x1p-53;

/// The change of basis is used only while the window's scaling stays this
/// close to the reference one: per-feature scale ratios within
/// [1/kMaxScaleRatio, kMaxScaleRatio] and mean shifts within kMaxMeanShift
/// current standard deviations. Further out the map's quartic terms would
/// amplify the moments' rounding, so the refit rebuilds them instead.
constexpr double kMaxScaleRatio = 2.0;
constexpr double kMaxMeanShift = 1.0;

using RawFeatures = std::array<double, kNumRawFeatures>;

// ---- monomial layout --------------------------------------------------
//
// x = [1, z₀₁..z₀ₙ] has kVars entries. A monomial of degree ≤ 4 in z₀ is a
// product x_a·x_b·x_c·x_d with a ≤ b ≤ c ≤ d. The products of degree k
// are stored so that the ones led by x_a are x_a times a contiguous
// suffix of the degree-(k−1) products: degree 2 holds x_a·x_b for a ≤ b in
// lexicographic order, and degree k holds, for a = 0, 1, ..., x_a times
// the degree-(k−1) products whose first index is ≥ a, which start at
// kOff{k−1}[a]. Each level is then kVars scaled copies of suffixes.

constexpr std::size_t kVars = kNumRawFeatures + 1;
constexpr std::size_t kDeg2 = kVars * (kVars + 1) / 2;
constexpr std::size_t kDeg3 = kDeg2 * (kVars + 2) / 3;
constexpr std::size_t kDeg4 = kDeg3 * (kVars + 3) / 4;
static_assert(kDeg2 == kQuadraticDim);

using Offsets = std::array<std::size_t, kVars>;

/// Where the products led by x_a start, given where the previous level's
/// products with first index a start and how many that level has.
constexpr Offsets next_offsets(const Offsets& prev, std::size_t prev_size) {
  Offsets out{};
  std::size_t at = 0;
  for (std::size_t a = 0; a < kVars; ++a) {
    out[a] = at;
    at += prev_size - prev[a];
  }
  return out;
}

constexpr Offsets degree1_offsets() {
  Offsets out{};
  for (std::size_t a = 0; a < kVars; ++a) out[a] = a;
  return out;
}

constexpr Offsets kOff2 = next_offsets(degree1_offsets(), kVars);
constexpr Offsets kOff3 = next_offsets(kOff2, kDeg2);
constexpr Offsets kOff4 = next_offsets(kOff3, kDeg3);

constexpr std::size_t index2(std::size_t a, std::size_t b) {
  return kOff2[a] + (b - a);
}
constexpr std::size_t index3(std::size_t a, std::size_t b, std::size_t c) {
  return kOff3[a] + (index2(b, c) - kOff2[a]);
}
constexpr std::size_t index4(std::size_t a, std::size_t b, std::size_t c,
                             std::size_t d) {
  return kOff4[a] + (index3(b, c, d) - kOff3[a]);
}
static_assert(index2(kVars - 1, kVars - 1) == kDeg2 - 1);
static_assert(index4(kVars - 1, kVars - 1, kVars - 1, kVars - 1) == kDeg4 - 1);

/// The degree-3 products led by x_a: x_a times the degree-2 products whose
/// first index is ≥ a. The trip count is a constant, so the loop unrolls
/// and vectorizes.
template <std::size_t A>
void degree3_block(double* p3, const double* p2, double xa) {
  constexpr std::size_t n = kDeg2 - kOff2[A];
  double* out = p3 + kOff3[A];
  const double* in = p2 + kOff2[A];
  for (std::size_t k = 0; k < n; ++k) out[k] = xa * in[k];
}

template <std::size_t... A>
void degree3(double* p3, const double* p2, const double* x,
             std::index_sequence<A...> /*blocks*/) {
  (degree3_block<A>(p3, p2, x[A]), ...);
}

template <std::size_t N>
using Rows = std::array<std::array<double, kDeg3>, N>;
template <std::size_t N>
using Leads = std::array<std::array<double, kVars>, N>;

/// Adds, for each row r, sign_r·x_r[a] times its degree-3 products whose
/// first index is ≥ a to the sums of the degree-4 products led by x_a.
template <std::size_t A, std::size_t N>
void add_degree4_block(double* sums, const Rows<N>& p3, const Leads<N>& x,
                       const std::array<double, N>& signs) {
  constexpr std::size_t n = kDeg3 - kOff3[A];
  std::array<double, N> s{};
  for (std::size_t r = 0; r < N; ++r) s[r] = signs[r] * x[r][A];
  double* out = sums + kOff4[A];
  for (std::size_t k = 0; k < n; ++k) {
    double add = s[0] * p3[0][kOff3[A] + k];
    for (std::size_t r = 1; r < N; ++r) add += s[r] * p3[r][kOff3[A] + k];
    out[k] += add;
  }
}

/// sums += Σ_r sign_r · (every degree-4 product of x_r).
template <std::size_t N, std::size_t... A>
void add_degree4(double* sums, const Rows<N>& p3, const Leads<N>& x,
                 const std::array<double, N>& signs,
                 std::index_sequence<A...> /*blocks*/) {
  (add_degree4_block<A, N>(sums, p3, x, signs), ...);
}

/// The two entries of x whose product is quadratic_expand's column p.
struct Pair {
  std::size_t lo;
  std::size_t hi;
};

constexpr std::array<Pair, kQuadraticDim> quadratic_pairs() {
  std::array<Pair, kQuadraticDim> out{};
  std::size_t p = 0;
  out[p++] = {0, 0};
  for (std::size_t i = 1; i < kVars; ++i) out[p++] = {0, i};
  for (std::size_t i = 1; i < kVars; ++i) {
    for (std::size_t j = i + 1; j < kVars; ++j) out[p++] = {i, j};
  }
  for (std::size_t i = 1; i < kVars; ++i) out[p++] = {i, i};
  return out;
}
constexpr std::array<Pair, kQuadraticDim> kPairs = quadratic_pairs();

/// quadratic_expand's column p as an index into the degree-2 products.
constexpr std::array<std::uint8_t, kQuadraticDim> quadratic_columns() {
  std::array<std::uint8_t, kQuadraticDim> out{};
  for (std::size_t p = 0; p < kQuadraticDim; ++p) {
    out[p] = static_cast<std::uint8_t>(index2(kPairs[p].lo, kPairs[p].hi));
  }
  return out;
}
constexpr std::array<std::uint8_t, kQuadraticDim> kColumn2 =
    quadratic_columns();

/// G₀[p][q] = φ₀ₚφ₀_q summed: the monomial of the four sorted indices.
constexpr std::array<std::uint16_t, kQuadraticDim * kQuadraticDim>
gram_monomials() {
  std::array<std::uint16_t, kQuadraticDim * kQuadraticDim> out{};
  for (std::size_t p = 0; p < kQuadraticDim; ++p) {
    for (std::size_t q = 0; q < kQuadraticDim; ++q) {
      std::array<std::size_t, 4> v = {kPairs[p].lo, kPairs[p].hi, kPairs[q].lo,
                                      kPairs[q].hi};
      for (std::size_t i = 1; i < 4; ++i) {  // insertion sort
        for (std::size_t j = i; j > 0 && v[j - 1] > v[j]; --j) {
          const std::size_t t = v[j];
          v[j] = v[j - 1];
          v[j - 1] = t;
        }
      }
      out[p * kQuadraticDim + q] =
          static_cast<std::uint16_t>(index4(v[0], v[1], v[2], v[3]));
    }
  }
  return out;
}
constexpr std::array<std::uint16_t, kQuadraticDim * kQuadraticDim>
    kGramMonomial = gram_monomials();

/// Row p of the basis change T, with quadratic_expand(a⊙z₀ + d) =
/// T·quadratic_expand(z₀): zᵢ = aᵢz₀ᵢ + dᵢ, so zᵢzⱼ expands into z₀ᵢz₀ⱼ,
/// z₀ᵢ, z₀ⱼ and 1, and zᵢ² into z₀ᵢ², z₀ᵢ and 1. Every row has at most four
/// nonzeros, all in columns ≤ p (T is lower triangular); unused terms are
/// zero weights on column 0.
struct BasisRow {
  std::array<std::uint8_t, 4> col;
  std::array<double, 4> w;
};
using Basis = std::array<BasisRow, kQuadraticDim>;

Basis basis_change(const RawFeatures& a, const RawFeatures& d) {
  constexpr std::size_t n = kNumRawFeatures;
  const auto c = [](std::size_t k) { return static_cast<std::uint8_t>(k); };
  Basis t{};
  std::size_t p = 0;
  t[p++] = {{0, 0, 0, 0}, {1.0, 0.0, 0.0, 0.0}};
  for (std::size_t i = 0; i < n; ++i, ++p) {
    t[p] = {{c(1 + i), 0, 0, 0}, {a[i], d[i], 0.0, 0.0}};
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      t[p] = {{c(p), c(1 + i), c(1 + j), 0},
              {a[i] * a[j], a[i] * d[j], d[i] * a[j], d[i] * d[j]}};
    }
  }
  for (std::size_t i = 0; i < n; ++i, ++p) {
    t[p] = {{c(p), c(1 + i), 0, 0},
            {a[i] * a[i], 2.0 * a[i] * d[i], d[i] * d[i], 0.0}};
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
  buffer_.clear();
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
  const bool evicts = config_.window > 0 && buffer_.size() > config_.window;
  if (anchored_ && evicts) {
    accumulate<2>({&buffer_.back(), &buffer_.front()}, {1.0, -1.0});
  } else if (anchored_) {
    accumulate<1>({&buffer_.back()}, {1.0});
  }
  if (evicts) buffer_.pop_front();
  ++total_observed_;
  if (++since_refit_ >= config_.refit_interval) {
    refit();
  }
}

template <std::size_t N>
void QrsmModel::accumulate(const std::array<const Example*, N>& rows,
                           const std::array<double, N>& signs) {
  static_assert(kDeg4 == kNumMonomials);
  std::array<std::array<double, kVars>, N> x{};
  std::array<std::array<double, kDeg2>, N> p2{};
  std::array<std::array<double, kDeg3>, N> p3{};
  for (std::size_t r = 0; r < N; ++r) {
    const Example& ex = *rows[r];
    const double sign = signs[r];
    x[r][0] = 1.0;
    const RawFeatures z = ref_.apply(ex.raw);
    std::copy(z.begin(), z.end(), x[r].begin() + 1);
    for (std::size_t a = 0, k = 0; a < kVars; ++a) {
      for (std::size_t b = a; b < kVars; ++b) p2[r][k++] = x[r][a] * x[r][b];
    }
    degree3(p3[r].data(), p2[r].data(), x[r].data(),
            std::make_index_sequence<kVars>{});
    const double sy = sign * ex.y;
    for (std::size_t k = 0; k < kDeg2; ++k) xty_[k] += sy * p2[r][k];
    sum_y2_ += sy * ex.y;

    // No monomial of this row exceeds largest⁴ in magnitude, and a rounded
    // add errs by at most one unit roundoff of the sum it produces.
    double largest = 1.0;
    for (const double zi : z) largest = std::max(largest, std::abs(zi));
    const double l2 = largest * largest;
    mass_x_ += sign * l2 * l2;
    mass_y_ += sign * ex.y * ex.y;
    drift_x_ += std::abs(mass_x_);
    drift_y_ += std::abs(mass_y_);
  }
  add_degree4<N>(mono_.data(), p3, x, signs, std::make_index_sequence<kVars>{});
  moment_rows_ += N;
}

bool QrsmModel::drifted() const {
  return kUnitRoundoff * drift_x_ > kMaxRelativeDrift * mass_x_ ||
         kUnitRoundoff * drift_y_ > kMaxRelativeDrift * mass_y_;
}

void QrsmModel::rebuild_moments() {
  ref_ = FeatureScaler::fit(
      buffer_, [](const Example& ex) -> const RawFeatures& { return ex.raw; });
  mono_.fill(0.0);
  xty_.fill(0.0);
  sum_y2_ = 0.0;
  mass_x_ = 0.0;
  mass_y_ = 0.0;
  for (const Example& ex : buffer_) accumulate<1>({&ex}, {1.0});
  drift_x_ = 0.0;  // the sums were just formed from scratch
  drift_y_ = 0.0;
  anchored_ = true;
}

FeatureScaler QrsmModel::scaler_from_moments() const {
  const auto n = static_cast<double>(buffered());
  FeatureScaler s;
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    const double mean_z = mono_[index4(0, 0, 0, 1 + i)] / n;
    const double var_z = std::max(
        0.0, mono_[index4(0, 0, 1 + i, 1 + i)] / n - mean_z * mean_z);
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

  // z = (x − m)/s and z₀ = (x − m₀)/s₀ give z = a⊙z₀ + d with a = s₀/s
  // and d = (m₀ − m)/s.
  RawFeatures a{};
  RawFeatures d{};
  FeatureScaler scaler;
  bool rebuild = !anchored_ || drifted();
  if (!rebuild) {
    scaler = scaler_from_moments();
    for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
      a[i] = ref_.scale[i] / scaler.scale[i];
      d[i] = (ref_.mean[i] - scaler.mean[i]) / scaler.scale[i];
      rebuild = rebuild || a[i] > kMaxScaleRatio ||
                a[i] < 1.0 / kMaxScaleRatio || std::abs(d[i]) > kMaxMeanShift;
    }
  }
  if (rebuild) {
    rebuild_moments();
    scaler = ref_;
    a.fill(1.0);
    d.fill(0.0);
  }

  // G = T·G₀·Tᵀ and b = T·b₀, with G₀ scattered from the monomial sums.
  // T is lower triangular, so H = T·G₀ can overwrite G₀ from the last row
  // up, and G = H·Tᵀ can overwrite each row of H from the last column
  // down; only G's lower triangle is formed.
  constexpr std::size_t n = kQuadraticDim;
  const Basis t = basis_change(a, d);
  std::array<double, n * n> gram{};
  for (std::size_t k = 0; k < n * n; ++k) gram[k] = mono_[kGramMonomial[k]];
  for (std::size_t p = n; p-- > 0;) {
    const BasisRow& tp = t[p];
    const double* r0 = gram.data() + tp.col[0] * n;
    const double* r1 = gram.data() + tp.col[1] * n;
    const double* r2 = gram.data() + tp.col[2] * n;
    const double* r3 = gram.data() + tp.col[3] * n;
    double* out = gram.data() + p * n;
    for (std::size_t c = 0; c < n; ++c) {
      out[c] = tp.w[0] * r0[c] + tp.w[1] * r1[c] + tp.w[2] * r2[c] +
               tp.w[3] * r3[c];
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    double* row = gram.data() + p * n;
    for (std::size_t q = p + 1; q-- > 0;) {
      const BasisRow& tq = t[q];
      row[q] = tq.w[0] * row[tq.col[0]] + tq.w[1] * row[tq.col[1]] +
               tq.w[2] * row[tq.col[2]] + tq.w[3] * row[tq.col[3]];
    }
  }
  std::array<double, n> xty{};
  for (std::size_t p = 0; p < n; ++p) {
    const BasisRow& tp = t[p];
    for (std::size_t m = 0; m < 4; ++m) {
      xty[p] += tp.w[m] * xty_[kColumn2[tp.col[m]]];
    }
  }

  std::array<double, n * n> chol = gram;
  for (std::size_t i = 0; i < n; ++i) chol[i * n + i] += config_.ridge_lambda;
  if (!cbs::linalg::cholesky_in_place(chol, n)) {
    // A rank-deficient window (possible only with ridge_lambda = 0): keep
    // the previous fit and its scaling.
    ++refit_failures_;
    return;
  }
  std::array<double, n> beta = xty;
  cbs::linalg::cholesky_solve_in_place(chol, n, beta);

  // SS_res = yᵀy − 2βᵀXᵀy + βᵀXᵀXβ, all from the moments; βᵀGβ from G's
  // lower triangle.
  double beta_xty = 0.0;
  double beta_g_beta = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    const double* row = gram.data() + p * n;
    double off_diagonal = 0.0;
    for (std::size_t q = 0; q < p; ++q) off_diagonal += row[q] * beta[q];
    beta_g_beta += beta[p] * (row[p] * beta[p] + 2.0 * off_diagonal);
    beta_xty += beta[p] * xty[p];
  }
  const double ss_res =
      std::max(0.0, sum_y2_ - 2.0 * beta_xty + beta_g_beta);
  const auto rows = static_cast<double>(buffered());
  const double sum_y = xty_[0];
  const double ss_tot = sum_y2_ - sum_y * sum_y / rows;

  scaler_ = scaler;
  fit_ = QrsmFit{.coefficients = beta,
                 .r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot,
                 .rmse = std::sqrt(ss_res / rows)};
}

double QrsmModel::surface(const RawFeatures& raw) const {
  const QuadraticRow row = quadratic_expand(scaler_.apply(raw));
  double y = 0.0;
  for (std::size_t j = 0; j < kQuadraticDim; ++j) {
    y += row[j] * fit_->coefficients[j];
  }
  return y;
}

double QrsmModel::predict(const cbs::workload::DocumentFeatures& features) const {
  if (!fit_) {
    // Cold start: mean of whatever has been seen, else the configured floor.
    double fallback = config_.min_prediction_seconds;
    if (buffered() > 0) {
      double sum = 0.0;
      for (const Example& ex : buffer_) sum += ex.y;
      fallback = sum / static_cast<double>(buffered());
    }
    return std::max(fallback, config_.min_prediction_seconds);
  }
  return std::max(surface(extract_raw(features)),
                  config_.min_prediction_seconds);
}

}  // namespace cbs::models
