// Shared fixtures for the grid/solver test suites.
//
// Every optimized solver in this library must reproduce the naive
// reference *bit for bit*, so the helpers here default to exact
// comparisons; the tolerance overloads exist for genuinely approximate
// quantities (performance models, norms of long runs).
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/grid.hpp"
#include "core/reference.hpp"

namespace tb::test {

/// Grid shapes small enough for exhaustive/bitwise checks in every suite.
inline constexpr std::array<std::array<int, 3>, 4> kSmallShapes{{
    {4, 4, 4}, {7, 5, 6}, {9, 9, 9}, {16, 8, 12}}};

/// Larger shapes for stress/threaded runs (still CI-friendly).
inline constexpr std::array<std::array<int, 3>, 3> kLargeShapes{{
    {24, 24, 24}, {33, 17, 21}, {40, 32, 16}}};

/// Deterministic pattern-filled grid (the standard initial condition).
[[nodiscard]] inline core::Grid3 make_initial(int nx, int ny, int nz) {
  core::Grid3 g(nx, ny, nz);
  core::fill_test_pattern(g);
  return g;
}

/// Cubic overload: n^3 grid.
[[nodiscard]] inline core::Grid3 make_initial(int n) {
  return make_initial(n, n, n);
}

/// fill_test_pattern's per-cell definition, three libm calls per cell:
/// the oracle its tabulated implementation must match bit for bit.
inline void fill_test_pattern_oracle(core::Grid3& g, double scale = 1.0) {
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i) {
        const double w = std::sin(0.31 * i) * std::cos(0.17 * j) +
                         std::sin(0.07 * k * i) * 0.25 +
                         0.01 * ((i * 131 + j * 17 + k * 739) % 97);
        g.at(i, j, k) = scale * w;
      }
}

/// The standard two-material field (core::make_slab_kappa) under the
/// test tree's naming convention.
[[nodiscard]] inline core::Grid3 make_kappa(int nx, int ny, int nz) {
  return core::make_slab_kappa(nx, ny, nz);
}

/// Cubic overload: n^3 material field.
[[nodiscard]] inline core::Grid3 make_kappa(int n) {
  return make_kappa(n, n, n);
}

/// Result of `steps` naive reference sweeps from `initial` — the
/// correctness oracle every solver variant is compared against.
[[nodiscard]] inline core::Grid3 reference_result(const core::Grid3& initial,
                                                  int steps) {
  core::Grid3 a = initial.clone();
  core::Grid3 b = initial.clone();
  return core::reference_solve(a, b, steps).clone();
}

/// Asserts max |a - b| <= tol over the unpadded extents (tol = 0 demands
/// exact equality, the default expectation for solver equivalence).
inline void expect_grids_close(const core::Grid3& a, const core::Grid3& b,
                               double tol = 0.0) {
  EXPECT_LE(core::max_abs_diff(a, b), tol);
}

/// Asserts bitwise equality of every payload double (distinguishes -0.0
/// from 0.0 and compares NaNs by representation — what checkpoint
/// round-trips must preserve).
inline void expect_grids_bitwise_equal(const core::Grid3& a,
                                       const core::Grid3& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.nz(), b.nz());
  for (int k = 0; k < a.nz(); ++k)
    for (int j = 0; j < a.ny(); ++j)
      for (int i = 0; i < a.nx(); ++i) {
        std::uint64_t ba = 0, bb = 0;
        std::memcpy(&ba, &a.at(i, j, k), sizeof(ba));
        std::memcpy(&bb, &b.at(i, j, k), sizeof(bb));
        ASSERT_EQ(ba, bb) << "at (" << i << "," << j << "," << k << ")";
      }
}

}  // namespace tb::test
