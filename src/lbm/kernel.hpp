// D3Q19 BGK stream-collide kernel (pull scheme).
//
// One update of a fluid cell x at time level s:
//   1. Pull: f_in[q] = f_src[q](x - e_q); if x - e_q is solid, the halfway
//      bounce-back rule reflects the local distribution instead:
//      f_in[q] = f_src[opp(q)](x), plus a momentum term for moving walls
//      (lid):  + 6 w_q rho0 (e_q . u_wall).
//   2. Collide: f_dst[q](x) = f_in[q] - omega (f_in[q] - f_eq[q](rho, u)).
//
// Every update evaluates the identical floating-point expression for a
// given cell and level, so (as with the Jacobi solvers) any correctly
// scheduled variant is bit-identical to the naive reference — the property
// the equivalence tests assert.  collide() below is the single source of
// the moment/collision expression: the naive stream_collide_cell(), the
// masked row kernel the LbmOp schemes run, and both storage policies
// (two-lattice ping-pong and in-place AA) all feed their pulled f_in
// through it, so the policies differ only in WHERE distributions are read
// and written, never in the arithmetic.
//
// The per-q geometry branch of the naive kernel is hoisted into a
// precomputed per-cell bit mask (cell_mask): bit q says "neighbor x - e_q
// is solid", bit 19+q says "that neighbor is the moving lid", bit 63 says
// "the cell itself is solid".  Interior rows of the lid-driven cavity are
// mask == 0 almost everywhere, so the row kernel's common case is 19
// branchless row loads.
#pragma once

#include <cstdint>

#include "core/blocks.hpp"
#include "lbm/lattice.hpp"
#include "util/simd.hpp"

namespace tb::lbm {

/// Physical parameters of the BGK model.
struct LbmConfig {
  double omega = 1.0;                       ///< relaxation rate (0 < w < 2)
  double rho0 = 1.0;                        ///< wall density for the lid term
  std::array<double, 3> lid_velocity{0.05, 0.0, 0.0};

  void validate() const {
    if (omega <= 0.0 || omega >= 2.0)
      throw std::invalid_argument("LbmConfig: omega must be in (0, 2)");
  }
};

/// Moments + BGK collision of one cell's pulled distributions, in place:
/// f[q] <- f[q] - omega (f[q] - f_eq[q](rho, u)).  Returns the density.
/// The accumulation order is THE canonical one — every caller inherits
/// bit-identical arithmetic from this function.
///
/// Hand-unrolled over the constant D3Q19 velocity set: the first moment
/// is pure adds/subs (components are 0/±1), the three per-cell divisions
/// collapse into one reciprocal, and opposite velocity pairs share their
/// equilibrium even/odd parts: with  a = w rho (1 - 1.5u^2 + 4.5 (e.u)^2)
/// and  b = w rho 3 (e.u),  f_eq(+e) = a + b and f_eq(-e) = a - b.  This
/// roughly halves the collision flops — raising the bandwidth-per-update
/// pressure that the storage policies are measured under.
inline double collide(const LbmConfig& cfg, std::array<double, kQ>& f) {
  const double rho = f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] +
                     f[7] + f[8] + f[9] + f[10] + f[11] + f[12] + f[13] +
                     f[14] + f[15] + f[16] + f[17] + f[18];
  const double mx = f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] -
                    f[12] + f[13] - f[14];
  const double my = f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] -
                    f[16] + f[17] - f[18];
  const double mz = f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] -
                    f[16] - f[17] + f[18];
  const double inv_rho = 1.0 / rho;
  const double ux = mx * inv_rho, uy = my * inv_rho, uz = mz * inv_rho;
  const double base = 1.0 - 1.5 * (ux * ux + uy * uy + uz * uz);
  const double wr_axis = (1.0 / 18.0) * rho;
  const double wr_diag = (1.0 / 36.0) * rho;
  const double om = cfg.omega;
  const auto relax = [om](double& fq, double feq) {
    fq -= om * (fq - feq);
  };
  relax(f[0], (1.0 / 3.0) * rho * base);
  const auto pair = [base, &relax](double& fp, double& fm, double wr,
                                   double eu) {
    const double a = wr * (base + 4.5 * (eu * eu));
    const double b = wr * (3.0 * eu);
    relax(fp, a + b);
    relax(fm, a - b);
  };
  pair(f[1], f[2], wr_axis, ux);
  pair(f[3], f[4], wr_axis, uy);
  pair(f[5], f[6], wr_axis, uz);
  pair(f[7], f[8], wr_diag, ux + uy);
  pair(f[9], f[10], wr_diag, ux - uy);
  pair(f[11], f[12], wr_diag, ux + uz);
  pair(f[13], f[14], wr_diag, ux - uz);
  pair(f[15], f[16], wr_diag, uy + uz);
  pair(f[17], f[18], wr_diag, uy - uz);
  return rho;
}

/// collide() over a vector of W cells at once — the SoA lane-group form
/// of the scalar function above, used by the row kernel's fully-fluid
/// blocks.  Vectorization is ACROSS cells only: lane l carries cell l's
/// moments/equilibria through the very same expression tree, operator by
/// operator, as the scalar collide() (every vec op is the elementwise
/// IEEE double op and contraction is off build-wide), so each lane's
/// result is bit-identical to the scalar path.  No reduction is ever
/// performed within a lane's 19 distributions by vector shuffles — the
/// per-cell accumulation order stays the canonical scalar one.
template <class V>
inline V collide_vec(const LbmConfig& cfg, std::array<V, kQ>& f) {
  const V rho = f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7] +
                f[8] + f[9] + f[10] + f[11] + f[12] + f[13] + f[14] +
                f[15] + f[16] + f[17] + f[18];
  const V mx = f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] +
               f[13] - f[14];
  const V my = f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] +
               f[17] - f[18];
  const V mz = f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] -
               f[16] - f[17] + f[18];
  const V inv_rho = V::broadcast(1.0) / rho;
  const V ux = mx * inv_rho, uy = my * inv_rho, uz = mz * inv_rho;
  const V base = V::broadcast(1.0) -
                 V::broadcast(1.5) * (ux * ux + uy * uy + uz * uz);
  const V wr_axis = V::broadcast(1.0 / 18.0) * rho;
  const V wr_diag = V::broadcast(1.0 / 36.0) * rho;
  const V om = V::broadcast(cfg.omega);
  const auto relax = [om](V& fq, V feq) { fq = fq - om * (fq - feq); };
  relax(f[0], V::broadcast(1.0 / 3.0) * rho * base);
  const auto pair = [base, &relax](V& fp, V& fm, V wr, V eu) {
    const V a = wr * (base + V::broadcast(4.5) * (eu * eu));
    const V b = wr * (V::broadcast(3.0) * eu);
    relax(fp, a + b);
    relax(fm, a - b);
  };
  pair(f[1], f[2], wr_axis, ux);
  pair(f[3], f[4], wr_axis, uy);
  pair(f[5], f[6], wr_axis, uz);
  pair(f[7], f[8], wr_diag, ux + uy);
  pair(f[9], f[10], wr_diag, ux - uy);
  pair(f[11], f[12], wr_diag, ux + uz);
  pair(f[13], f[14], wr_diag, ux - uz);
  pair(f[15], f[16], wr_diag, uy + uz);
  pair(f[17], f[18], wr_diag, uy - uz);
  return rho;
}

/// Per-direction momentum terms of the moving wall, precomputed once per
/// solver: t[q] = 6 w_q rho0 (e_q . u_lid) — the exact product the naive
/// kernel forms inline, so adding it is bit-identical.
struct LidTerms {
  std::array<double, kQ> t{};
  LidTerms() = default;
  explicit LidTerms(const LbmConfig& cfg) {
    for (int q = 0; q < kQ; ++q) {
      const auto& e = kVelocities[static_cast<std::size_t>(q)];
      const auto& u = cfg.lid_velocity;
      t[static_cast<std::size_t>(q)] =
          6.0 * kWeights[static_cast<std::size_t>(q)] * cfg.rho0 *
          (e[0] * u[0] + e[1] * u[1] + e[2] * u[2]);
    }
  }
};

/// Geometry mask bit for "the cell itself is solid".
inline constexpr std::uint64_t kMaskSolid = 1ull << 63;

/// Precomputed geometry mask of one cell: bit q (0..18) = neighbor
/// x - e_q is solid, bit 19+q = that neighbor is the lid, bit 63 = the
/// cell itself is solid (masking everything else).  The rest direction
/// q = 0 never sets a bit (its "neighbor" is the cell itself).
[[nodiscard]] inline std::uint64_t cell_mask(const Geometry& geo, int i,
                                             int j, int k) {
  if (geo.at(i, j, k) != Cell::kFluid) return kMaskSolid;
  std::uint64_t m = 0;
  for (int q = 1; q < kQ; ++q) {
    const auto& e = kVelocities[static_cast<std::size_t>(q)];
    const Cell neighbor = geo.at(i - e[0], j - e[1], k - e[2]);
    if (neighbor != Cell::kFluid) {
      m |= 1ull << q;
      if (neighbor == Cell::kLid) m |= 1ull << (19 + q);
    }
  }
  return m;
}

/// Row pointer bundle of the masked kernel.  The three storage/step
/// flavors differ only in how these rows are wired:
///   fl[q] + i  — where fin[q] of cell i is read when x - e_q is fluid
///   bb[q] + i  — where fin[q] is read instead when x - e_q is solid
///   out[q] + i — where the post-collision fout[q] of cell i is written
/// Two-lattice pull:  fl[q] = src_q(.. - e_q), bb[q] = src_opp(q)(x),
///                    out[q] = dst_q(x).
/// AA local (odd):    fl[q] = A_q(x),          bb[q] = A_opp(q)(x - e_q),
///                    out[q] = A_opp(q)(x).
/// AA stream (even):  fl[q] = A_opp(q)(x - e_q), bb[q] = A_q(x),
///                    out[q] = A_q(x + e_q).
struct LatticeRow {
  std::array<const double*, kQ> fl{};
  std::array<const double*, kQ> bb{};
  std::array<double*, kQ> out{};
};

/// One masked stream-collide row over cells i0..i1 of the carrier rows
/// (dst, c): fluid cells pull/collide/write through the bundle and store
/// their density into dst[i]; solid cells copy the carrier through and
/// leave every lattice slot untouched.  Each cell reads all 19 fin before
/// writing any fout, which is what makes the in-place AA wirings (where
/// out[] aliases fl[]/bb[]) correct.  Cells run in ascending i in every
/// scheme: a cell reads only its own carrier cell c[i], so the compressed
/// scheme's shifted dst row (another source row) sets no order, and the
/// lattice writes are order-independent.
///
/// Cell-blocked SoA vectorization: runs of W cells whose masks are all
/// zero (the overwhelming case on interior rows of the cavity) transpose
/// their 19 distributions into W-wide registers — load f[q] of cells
/// i..i+W-1 from the contiguous row r.fl[q] + i — and go through
/// collide_vec, which applies the canonical scalar expression elementwise
/// across the lane group.  A W-block reads all 19*W fin before writing
/// any fout, the same read-all-then-write-all discipline as the scalar
/// cell, so the in-place AA wirings remain correct (a stream-step slot
/// (q, x + e_q) has cell x as its only level-L reader AND writer, and
/// local-step writes touch only the writing cell's own slots — no
/// cross-lane hazard exists inside a block).  Blocks containing any
/// masked cell fall back to the scalar per-lane path in traversal order.
///
/// `StreamCarrier` / `StreamLattice` select non-temporal stores for the
/// W-block writes of the carrier dst resp. the 19 fout rows.  Nothing
/// reads a level-L store before level L+1, so skipping the
/// write-allocate is safe for both; the split exists because only
/// unshifted out rows share the carrier's alignment class and only
/// stores to lines the update did NOT already load gain anything — the
/// two-lattice wiring streams both, the in-place AA wirings stream just
/// the carrier (their lattice stores hit freshly loaded lines, and the
/// stream step's +e[0] shift is off-alignment anyway).  Rows start
/// 64-byte aligned, so a scalar prologue peels to i % W == 0 and every
/// vector store in the row is aligned.
///
/// `prefetch` > 0 issues a software prefetch `prefetch` cells ahead on
/// each of the 19 pull streams per block — the 19-pointer gather is
/// exactly the access pattern that exhausts the hardware prefetcher's
/// stream budget.  Prefetches never fault, so no end-of-row clamp.
template <bool StreamCarrier = false, bool StreamLattice = false>
inline void masked_stream_collide_row(const LbmConfig& cfg,
                                      const LidTerms& lid,
                                      const std::uint64_t* mask,
                                      const LatticeRow& r, double* dst,
                                      const double* c, int i0, int i1,
                                      int prefetch = 0) {
  const auto cell = [&](int i) {
    const std::uint64_t m = mask[i];
    if (m & kMaskSolid) {
      dst[i] = c[i];
      return;
    }
    std::array<double, kQ> f;
    if (m == 0) {
      for (int q = 0; q < kQ; ++q)
        f[static_cast<std::size_t>(q)] = r.fl[static_cast<std::size_t>(q)][i];
    } else {
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        if ((m >> q) & 1ull)
          f[uq] = (m >> (19 + q)) & 1ull ? r.bb[uq][i] + lid.t[uq]
                                         : r.bb[uq][i];
        else
          f[uq] = r.fl[uq][i];
      }
    }
    dst[i] = collide(cfg, f);
    for (int q = 0; q < kQ; ++q)
      r.out[static_cast<std::size_t>(q)][i] = f[static_cast<std::size_t>(q)];
  };

  using V = util::simd::dvec;
  constexpr int W = V::kWidth;

  // OR of the W cell masks: zero iff the whole block is interior fluid.
  const auto block_mask = [&](int i) {
    std::uint64_t m = 0;
    for (int l = 0; l < W; ++l) m |= mask[i + l];
    return m;
  };

  // One fully-fluid W-block: transpose-load, collide across lanes, write.
  const auto block = [&](int i) {
    if (prefetch > 0)
      for (int q = 0; q < kQ; ++q)
        util::simd::prefetch_read(r.fl[static_cast<std::size_t>(q)] + i +
                                  prefetch);
    std::array<V, kQ> f;
    for (int q = 0; q < kQ; ++q)
      f[static_cast<std::size_t>(q)] =
          V::load(r.fl[static_cast<std::size_t>(q)] + i);
    const V rho = collide_vec(cfg, f);
    if constexpr (StreamCarrier) {
      rho.stream(dst + i);
    } else {
      rho.store(dst + i);
    }
    if constexpr (StreamLattice) {
      for (int q = 0; q < kQ; ++q)
        f[static_cast<std::size_t>(q)].stream(
            r.out[static_cast<std::size_t>(q)] + i);
    } else {
      for (int q = 0; q < kQ; ++q)
        f[static_cast<std::size_t>(q)].store(
            r.out[static_cast<std::size_t>(q)] + i);
    }
  };

  int i = i0;
  if constexpr (StreamCarrier || StreamLattice) {
    // Peel to the store alignment the streaming instructions require:
    // rows start 64-byte aligned, so dst + i (and every out[q] + i of
    // the two-lattice wiring) is vector-aligned iff i % W == 0.
    constexpr std::uintptr_t kVecBytes = W * sizeof(double);
    for (; i < i1 &&
           (reinterpret_cast<std::uintptr_t>(dst + i) % kVecBytes) != 0;
         ++i)
      cell(i);
  }
  for (; i + W <= i1; i += W) {
    if (block_mask(i) == 0) {
      block(i);
    } else {
      for (int l = 0; l < W; ++l) cell(i + l);
    }
  }
  for (; i < i1; ++i) cell(i);
}

/// One stream-collide update of the *fluid* cell (i, j, k): writes the 19
/// post-collision distributions into `dst` and returns the cell's density
/// (BGK conserves mass locally, so pre- and post-collision density
/// coincide).  The caller guarantees geo.at(i, j, k) == Cell::kFluid.
inline double stream_collide_cell(const Geometry& geo, const LbmConfig& cfg,
                                  const Lattice& src, Lattice& dst, int i,
                                  int j, int k) {
  std::array<double, kQ> fin;

  // 1. Pull with bounce-back.
  for (int q = 0; q < kQ; ++q) {
    const auto& e = kVelocities[static_cast<std::size_t>(q)];
    const int si = i - e[0], sj = j - e[1], sk = k - e[2];
    const Cell neighbor = geo.at(si, sj, sk);
    if (neighbor == Cell::kFluid) {
      fin[static_cast<std::size_t>(q)] = src.f(q).at(si, sj, sk);
    } else {
      double val = src.f(opposite(q)).at(i, j, k);
      if (neighbor == Cell::kLid) {
        const auto& u = cfg.lid_velocity;
        val += 6.0 * kWeights[static_cast<std::size_t>(q)] * cfg.rho0 *
               (e[0] * u[0] + e[1] * u[1] + e[2] * u[2]);
      }
      fin[static_cast<std::size_t>(q)] = val;
    }
  }

  // 2+3. Moments and BGK collision (the shared canonical expression).
  const double rho = collide(cfg, fin);
  for (int q = 0; q < kQ; ++q)
    dst.f(q).at(i, j, k) = fin[static_cast<std::size_t>(q)];
  return rho;
}

/// Applies one stream-collide level to every *fluid* cell in window `w`:
/// dst <- update(src).  Solid cells are never written.
inline void stream_collide_box(const Geometry& geo, const LbmConfig& cfg,
                               const Lattice& src, Lattice& dst,
                               const core::Box& w) {
  for (int k = w.lo[2]; k < w.hi[2]; ++k)
    for (int j = w.lo[1]; j < w.hi[1]; ++j)
      for (int i = w.lo[0]; i < w.hi[0]; ++i) {
        if (geo.at(i, j, k) != Cell::kFluid) continue;
        stream_collide_cell(geo, cfg, src, dst, i, j, k);
      }
}

}  // namespace tb::lbm
