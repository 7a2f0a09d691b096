#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "linalg/matrix.hpp"

namespace cbs::linalg {

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
/// Returns std::nullopt when A is not (numerically) positive definite —
/// callers fall back to QR or increase the ridge term.
[[nodiscard]] std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A·x = b given the Cholesky factor L (forward + back substitution).
[[nodiscard]] Vector cholesky_solve(const Matrix& l, const Vector& b);

/// Convenience: factor-and-solve; std::nullopt if not positive definite.
[[nodiscard]] std::optional<Vector> solve_spd(const Matrix& a, const Vector& b);

/// The same factorization on caller-owned storage, for callers that must
/// not allocate: `a` holds an n×n symmetric matrix row-major, of which only
/// the lower triangle is read, and L is written over it (the strict upper
/// triangle is left as it was). Returns false when A is not positive
/// definite; `a` is then partly overwritten.
[[nodiscard]] bool cholesky_in_place(std::span<double> a, std::size_t n);

/// Solves L·Lᵀ·x = b in place, with L the lower triangle of `l` (n×n,
/// row-major) as cholesky_in_place leaves it.
void cholesky_solve_in_place(std::span<const double> l, std::size_t n,
                             std::span<double> b);

}  // namespace cbs::linalg
