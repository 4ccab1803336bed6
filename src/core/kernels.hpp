// Innermost Jacobi row kernels.
//
// One stencil update (Eq. (1) of the paper):
//   B[i,j,k] = 1/6 (A[i-1,j,k] + A[i+1,j,k] + A[i,j-1,k] + A[i,j+1,k]
//                 + A[i,j,k-1] + A[i,j,k+1])
//
// All kernels operate on one x-row at a time, in ascending i; callers pass
// the six source row pointers.  The pointers never alias each other even
// in the compressed-grid (in-place, shifted) scheme: there the destination
// row is the source row (j-1, k-1) resp. (j+1, k+1), which is not among
// the rows {(j,k), (j±1,k), (j,k±1)} the update reads — hence the
// __restrict__ qualifiers are valid, and the order within a row is free.
//
// The row bodies are written against the explicit vec<double, W> layer
// (util/simd.hpp) instead of relying on the autovectorizer: W cells per
// iteration, each lane evaluating the identical scalar expression tree
// (jacobi_cell) elementwise, plus a scalar tail for the row remainder.
// Per-lane arithmetic is exactly the scalar expression and contraction is
// off build-wide, so bit-identity across variants — and across TB_SIMD ISA
// choices — is preserved.
//
// Backward compressed sweeps therefore descend across rows only (the paper
// also descended within each row, and hand-wrote SSE because icc would not
// vectorize backward loops).
#pragma once

#include <cstdint>

#include "util/simd.hpp"

namespace tb::core {

inline constexpr double kSixth = 1.0 / 6.0;

/// THE scalar Jacobi cell expression — the single source of truth every
/// vector lane and every scalar tail below must reproduce bit for bit.
[[nodiscard]] inline double jacobi_cell(const double* c, const double* jm,
                                        const double* jp, const double* km,
                                        const double* kp, int i) {
  return kSixth * (c[i - 1] + c[i + 1] + jm[i] + jp[i] + km[i] + kp[i]);
}

/// One native-width block of jacobi_cell at i..i+W-1, elementwise.
[[nodiscard]] inline util::simd::dvec jacobi_cell_vec(const double* c,
                                                      const double* jm,
                                                      const double* jp,
                                                      const double* km,
                                                      const double* kp,
                                                      int i) {
  using V = util::simd::dvec;
  return V::broadcast(kSixth) *
         (V::load(c + i - 1) + V::load(c + i + 1) + V::load(jm + i) +
          V::load(jp + i) + V::load(km + i) + V::load(kp + i));
}

/// Jacobi row update: dst[i] for i in [i0, i1).
inline void jacobi_row(double* __restrict__ dst,
                       const double* __restrict__ c,
                       const double* __restrict__ jm,
                       const double* __restrict__ jp,
                       const double* __restrict__ km,
                       const double* __restrict__ kp, int i0, int i1) {
  constexpr int W = util::simd::dvec::kWidth;
  int i = i0;
  for (; i + W <= i1; i += W)
    jacobi_cell_vec(c, jm, jp, km, kp, i).store(dst + i);
  for (; i < i1; ++i) dst[i] = jacobi_cell(c, jm, jp, km, kp, i);
}

/// Whether non-temporal (streaming) stores are available on this target
/// (false when TB_SIMD=scalar forces the generic path, and on NEON,
/// which has no cache-bypassing double store).
[[nodiscard]] constexpr bool nontemporal_supported() {
  return util::simd::kHasStream;
}

/// Jacobi row update with non-temporal stores, bypassing the cache
/// hierarchy and thereby avoiding the read-for-ownership on the write miss
/// (Sec. 1.1).  Only useful for the *standard* (not temporally blocked)
/// algorithm, where the result is not reused in cache.  Streaming stores
/// require native-vector alignment: rows start 64-byte aligned (Grid3's
/// padded pitch), so dst + i is aligned exactly when i % W == 0 — the
/// scalar prologue peels up to that boundary.
inline void jacobi_row_nt(double* __restrict__ dst,
                          const double* __restrict__ c,
                          const double* __restrict__ jm,
                          const double* __restrict__ jp,
                          const double* __restrict__ km,
                          const double* __restrict__ kp, int i0, int i1) {
  if constexpr (!util::simd::kHasStream) {
    jacobi_row(dst, c, jm, jp, km, kp, i0, i1);
  } else {
    constexpr int W = util::simd::dvec::kWidth;
    constexpr std::uintptr_t kVecBytes = W * sizeof(double);
    int i = i0;
    for (; i < i1 &&
           (reinterpret_cast<std::uintptr_t>(dst + i) % kVecBytes) != 0;
         ++i)
      dst[i] = jacobi_cell(c, jm, jp, km, kp, i);
    for (; i + W <= i1; i += W)
      jacobi_cell_vec(c, jm, jp, km, kp, i).stream(dst + i);
    for (; i < i1; ++i) dst[i] = jacobi_cell(c, jm, jp, km, kp, i);
  }
}

/// Fence required after a sequence of non-temporal stores before other
/// threads may read the data.
inline void nontemporal_fence() { util::simd::store_fence(); }

}  // namespace tb::core
