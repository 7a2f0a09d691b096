#include "linalg/cholesky.hpp"

#include <cassert>
#include <cmath>

namespace cbs::linalg {

namespace {

/// Σ a[k]·b[k] over k < n in four independent partial sums, so the loop
/// is not one long dependency chain.
double dot_prefix(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    s0 += a[k] * b[k];
    s1 += a[k + 1] * b[k + 1];
    s2 += a[k + 2] * b[k + 2];
    s3 += a[k + 3] * b[k + 3];
  }
  for (; k < n; ++k) s0 += a[k] * b[k];
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

bool cholesky_in_place(std::span<double> a, std::size_t n) {
  assert(a.size() >= n * n);
  // Column by column: L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j].
  // Each sum runs along two contiguous rows, and the entries of one column
  // do not depend on each other.
  for (std::size_t j = 0; j < n; ++j) {
    double* lj = a.data() + j * n;
    const double diag = lj[j] - dot_prefix(lj, lj, j);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    lj[j] = std::sqrt(diag);
    const double inv = 1.0 / lj[j];
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = a.data() + i * n;
      li[j] = (li[j] - dot_prefix(li, lj, j)) * inv;
    }
  }
  return true;
}

void cholesky_solve_in_place(std::span<const double> l, std::size_t n,
                             std::span<double> b) {
  assert(l.size() >= n * n && b.size() == n);
  // Forward substitution, L·y = b: a sum along row i of L.
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.data() + i * n;
    b[i] = (b[i] - dot_prefix(li, b.data(), i)) / li[i];
  }
  // Back substitution, Lᵀ·x = y: once x_i is known, it leaves the earlier
  // right-hand sides through row i of L.
  for (std::size_t i = n; i-- > 0;) {
    const double* li = l.data() + i * n;
    b[i] /= li[i];
    const double xi = b[i];
    for (std::size_t k = 0; k < i; ++k) b[k] -= li[k] * xi;
  }
}

}  // namespace cbs::linalg
