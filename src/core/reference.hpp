// Reference (naive) Jacobi solver — the correctness oracle.
//
// Single-threaded, no blocking, no tricks.  Every optimized variant in this
// library must reproduce its results *bit for bit*: each cell update
// evaluates the identical floating-point expression, so any schedule that
// respects the data dependencies yields identical bits.
#pragma once

#include <utility>

#include "core/grid.hpp"
#include "core/kernels.hpp"

namespace tb::core {

/// Performs one Jacobi sweep over the interior [1, n-1)^3 of `src` into
/// `dst`.  Boundary layers of `dst` are left untouched.
inline void reference_sweep(const Grid3& src, Grid3& dst) {
  for (int k = 1; k < src.nz() - 1; ++k)
    for (int j = 1; j < src.ny() - 1; ++j)
      jacobi_row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
                 src.row(j + 1, k), src.row(j, k - 1), src.row(j, k + 1), 1,
                 src.nx() - 1);
}

/// Runs `steps` reference sweeps alternating between `a` and `b`.
/// `a` holds the initial data (time level 0); both grids must carry the
/// same Dirichlet boundary values.  Returns the grid holding the final
/// level (`a` if steps is even, `b` if odd).
inline Grid3& reference_solve(Grid3& a, Grid3& b, int steps) {
  Grid3* src = &a;
  Grid3* dst = &b;
  for (int s = 0; s < steps; ++s) {
    reference_sweep(*src, *dst);
    std::swap(src, dst);
  }
  return *src;
}

}  // namespace tb::core
