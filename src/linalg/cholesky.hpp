#pragma once

#include <cstddef>
#include <span>

namespace cbs::linalg {

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix,
/// on caller-owned storage so that callers need not allocate: `a` holds an
/// n×n symmetric matrix row-major, of which only the lower triangle is
/// read, and L is written over it (the strict upper triangle is left as it
/// was). Returns false when A is not (numerically) positive definite or a
/// pivot is not finite; `a` is then partly overwritten.
[[nodiscard]] bool cholesky_in_place(std::span<double> a, std::size_t n);

/// Solves L·Lᵀ·x = b in place, with L the lower triangle of `l` (n×n,
/// row-major) as cholesky_in_place leaves it.
void cholesky_solve_in_place(std::span<const double> l, std::size_t n,
                             std::span<double> b);

}  // namespace cbs::linalg
