#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/cholesky.hpp"
#include "simcore/rng.hpp"

namespace {

using cbs::linalg::cholesky_in_place;
using cbs::linalg::cholesky_solve_in_place;

TEST(CholeskyTest, FactorsKnownSpdMatrix) {
  // A = [[4, 2, 2], [2, 5, 3], [2, 3, 6]] = L·Lᵀ with
  // L = [[2, 0, 0], [1, 2, 0], [1, 1, 2]].
  std::array<double, 9> a = {4.0, 2.0, 2.0,  //
                             2.0, 5.0, 3.0,  //
                             2.0, 3.0, 6.0};
  ASSERT_TRUE(cholesky_in_place(a, 3));
  const std::array<double, 9> l = {2.0, 0.0, 0.0,  //
                                   1.0, 2.0, 0.0,  //
                                   1.0, 1.0, 2.0};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_DOUBLE_EQ(a[i * 3 + j], l[i * 3 + j]) << i << "," << j;
    }
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  std::array<double, 4> a = {1.0, 2.0, 2.0, 1.0};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_in_place(a, 2));
  // Singular (rank 1): the second pivot is exactly zero.
  std::array<double, 4> b = {1.0, 1.0, 1.0, 1.0};
  EXPECT_FALSE(cholesky_in_place(b, 2));
}

TEST(CholeskyTest, RejectsNanDiagonal) {
  std::array<double, 4> a = {std::numeric_limits<double>::quiet_NaN(), 0.0,
                             0.0, 1.0};
  EXPECT_FALSE(cholesky_in_place(a, 2));
  std::array<double, 4> b = {1.0, 0.0, 0.0,
                             std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(cholesky_in_place(b, 2));
}

TEST(CholeskyTest, SolveRoundTrip) {
  // A = BᵀB + I/2 is SPD; solve A·x = A·x_true.
  constexpr std::size_t n = 5;
  cbs::sim::RngStream rng(4);
  std::array<double, n * n> b{};
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  std::array<double, n * n> a{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) a[i * n + j] += b[k * n + i] * b[k * n + j];
    }
    a[i * n + i] += 0.5;
  }
  const std::array<double, n> x_true = {1.0, -2.0, 3.0, -4.0, 5.0};
  std::array<double, n> x{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) x[i] += a[i * n + j] * x_true[j];
  }

  ASSERT_TRUE(cholesky_in_place(a, n));
  cholesky_solve_in_place(a, n, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(CholeskyTest, LeavesTheStrictUpperTriangleAsItWas) {
  // Only the lower triangle is read and written: sentinels above the
  // diagonal survive the factorization, and the solve ignores them.
  constexpr double kSentinel = -777.0;
  std::array<double, 9> a = {4.0,  kSentinel, kSentinel,  //
                             2.0,  5.0,       kSentinel,  //
                             2.0,  3.0,       6.0};
  ASSERT_TRUE(cholesky_in_place(a, 3));
  EXPECT_EQ(a[1], kSentinel);
  EXPECT_EQ(a[2], kSentinel);
  EXPECT_EQ(a[5], kSentinel);

  // A·(1, 1, 1) = (8, 10, 11).
  std::array<double, 3> x = {8.0, 10.0, 11.0};
  cholesky_solve_in_place(a, 3, x);
  for (const double xi : x) EXPECT_NEAR(xi, 1.0, 1e-12);
}

}  // namespace
