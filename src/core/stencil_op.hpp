// The stencil-operator abstraction underneath every solver scheme.
//
// The paper's pipelined temporal blocking is not Jacobi-specific: any
// update whose reads stay within the 3^3 neighborhood of the previous
// time level fits the skewed block schedule.  A *StencilOp* captures
// exactly that contract, so the three scheme implementations (baseline,
// pipelined two-grid — which also runs the wavefront preset — and
// compressed-grid) are templates over the operator and a new operator
// lands as one self-contained struct.
//
// StencilOp concept (compile-time, duck-typed):
//
//   static constexpr int kHalo = 1;        // neighborhood radius in cells
//   static constexpr bool kHasNontemporal; // has a streaming-store row path
//
//   // One x-row of updates at logical coordinates (j, k): produce
//   // dst[i] for i in [i0, i1) from the five source rows of the previous
//   // time level (center, j-1, j+1, k-1, k+1).  `j`/`k` are LOGICAL grid
//   // coordinates — operators with auxiliary per-cell fields (see
//   // VarCoefOp) index those fields with them; the row pointers may be
//   // margin-shifted views of a compressed-grid allocation.  `level` is
//   // the 1-based index of the time level being produced, counted from
//   // the start of the current scheme run: time-dependent operators
//   // (RedBlackOp's color phase, lbm::LbmOp's distribution parity) add
//   // an externally owned LevelOrigin to recover the absolute time
//   // level; time-invariant operators ignore it.
//   //
//   // Every scheme calls row() in both sweep directions of the
//   // compressed grid: only the order ACROSS rows follows the shift, a
//   // row itself may run in ascending i.  In a compressed sweep dst is
//   // the source row (j-1, k-1) (forward, shift (-1,-1,-1)) resp.
//   // (j+1, k+1) (backward, shift (+1,+1,+1)), one cell over; an
//   // operator whose row reads that row must order its own loop to
//   // read each such cell before overwriting it (Box27Op).
//   void row(double* dst, const double* c, const double* jm,
//            const double* jp, const double* km, const double* kp,
//            int level, int j, int k, int i0, int i1) const;
//
//   // Only when kHasNontemporal: the same update with non-temporal
//   // (streaming) stores, bypassing the cache to avoid the
//   // write-allocate.  The baseline scheme is its only caller.
//   void row_nt(...same signature...) const;
//
// Every row method must evaluate the *identical floating-point
// expression* per (cell, level) in every variant, so that all schemes
// stay bit-identical to the naive reference for the same operator.
#pragma once

#include <array>
#include <memory>
#include <stdexcept>

#include "core/blocks.hpp"
#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "util/slices.hpp"

namespace tb::core {

/// Shared offset turning the scheme-local `level` argument into an
/// absolute time level: absolute = origin->base + level.  The
/// StencilSolver facade bumps `base` between phases (team sweeps vs.
/// remainder sweeps, consecutive advance() calls) on the operator state
/// it owns; drivers that already pass absolute levels into the schemes
/// (the distributed solver's base_level) leave the origin at nullptr/0.
/// Never mutated while a sweep is in flight — operators may read it
/// without synchronization.
struct LevelOrigin {
  int base = 0;
};

/// Constant-coefficient Jacobi (Eq. (1) of the paper): the arithmetic
/// mean of the six face neighbours.  Stateless; delegates to the hand
/// tuned row kernels in core/kernels.hpp.
struct JacobiOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = true;

  void row(double* __restrict__ dst, const double* __restrict__ c,
           const double* __restrict__ jm, const double* __restrict__ jp,
           const double* __restrict__ km, const double* __restrict__ kp,
           int /*level*/, int /*j*/, int /*k*/, int i0, int i1) const {
    jacobi_row(dst, c, jm, jp, km, kp, i0, i1);
  }

  void row_nt(double* __restrict__ dst, const double* __restrict__ c,
              const double* __restrict__ jm, const double* __restrict__ jp,
              const double* __restrict__ km, const double* __restrict__ kp,
              int /*level*/, int /*j*/, int /*k*/, int i0, int i1) const {
    jacobi_row_nt(dst, c, jm, jp, km, kp, i0, i1);
  }
};

/// Precomputed face-coefficient fields for the heterogeneous-diffusion
/// stencil: the standard finite-volume discretization of
/// div(kappa grad u) = 0 with harmonic-mean face coefficients.
///
/// Each face is stored once: field d at cell c holds harmonic(kappa(c),
/// kappa(c - e_d)), the -d face of c and the +d face of c - e_d.  It has
/// the bits of harmonic(kappa(c - e_d), kappa(c)) too: harmonic() is
/// symmetric bit for bit while 2.0 * a is exact (kappa < DBL_MAX / 2),
/// since the product and the sum commute.
///
/// Solvers hold a set through std::shared_ptr<const DiffusionCoefficients>
/// and never write it, so solvers on one material can share one set (see
/// core::SolverSession).  rebuild() writes in place: its caller must know
/// that at most one solver, the one it is refilling for, reads the set.
class DiffusionCoefficients {
 public:
  /// The six face rows the update of row (j, k) reads.
  struct FaceRows {
    const double *xm, *xp, *ym, *yp, *zm, *zp;
  };

  /// Builds face coefficients from a cell-centered kappa field (same
  /// shape as the solution grid; kappa must be positive on the interior
  /// and its boundary-adjacent layer).  `threads` split the faces over
  /// z-slices, here and in rebuild(); every face is computed on its own,
  /// so the coefficients do not depend on the split.
  explicit DiffusionCoefficients(const Grid3& kappa, int threads = 1)
      : nx_(kappa.nx()),
        ny_(kappa.ny()),
        nz_(kappa.nz()),
        threads_(threads) {
    for (auto& f : faces_) f = Grid3(nx_, ny_, nz_);
    fill_faces(kappa);
  }

  /// Recomputes the face coefficients from a new material field IN the
  /// existing allocations (kappa must match the constructed shape) —
  /// identical arithmetic to construction, so a solver reset with a new
  /// kappa stays bit-identical to a fresh solver on the same field.
  void rebuild(const Grid3& kappa) {
    if (kappa.nx() != nx_ || kappa.ny() != ny_ || kappa.nz() != nz_)
      throw std::invalid_argument(
          "DiffusionCoefficients::rebuild: kappa shape must match the "
          "constructed shape");
    fill_faces(kappa);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

  /// Rows of an interior row (j, k): the +x face is the -x row shifted
  /// by one cell, the +y and +z faces are the next row and plane.
  [[nodiscard]] FaceRows rows(int j, int k) const {
    const double* xm = faces_[0].row(j, k);
    return {xm, xm + 1, faces_[1].row(j, k), faces_[1].row(j + 1, k),
            faces_[2].row(j, k), faces_[2].row(j, k + 1)};
  }

 private:
  static double harmonic(double a, double b) {
    return (a > 0 && b > 0) ? 2.0 * a * b / (a + b) : 0.0;
  }

  /// Every field over the cells [1, n - 1]^3: each face an interior cell
  /// reads, plus faces between two boundary cells that nothing reads.
  void fill_faces(const Grid3& kappa) {
    util::for_each_slice(threads_, 1, nz_, [&](int, int k0, int k1) {
      for (int k = k0; k < k1; ++k)
        for (int j = 1; j < ny_; ++j) {
          const double* kc = kappa.row(j, k);
          const double* ky = kappa.row(j - 1, k);
          const double* kz = kappa.row(j, k - 1);
          double* fx = faces_[0].row(j, k);
          double* fy = faces_[1].row(j, k);
          double* fz = faces_[2].row(j, k);
          for (int i = 1; i < nx_; ++i) {
            fx[i] = harmonic(kc[i], kc[i - 1]);
            fy[i] = harmonic(kc[i], ky[i]);
            fz[i] = harmonic(kc[i], kz[i]);
          }
        }
    });
  }

  int nx_, ny_, nz_;
  int threads_;  ///< z-slices fill_faces splits the planes into
  std::array<Grid3, 3> faces_;  ///< one field per axis: x, y, z
};

/// Variable-coefficient (heterogeneous) diffusion fixed-point iteration:
///
///   u'(x) = sum_d [ cW_d(x) u(x-e_d) + cE_d(x) u(x+e_d) ] / C(x),
///
/// where the six face coefficients c, read from three stored face fields
/// (DiffusionCoefficients), come from a material field kappa and C is
/// their sum.  The coefficient fields are indexed with the LOGICAL
/// (i, j, k) — they never shift, which is what lets the compressed-grid
/// scheme (whose solution window drifts through its allocation) run this
/// operator unchanged.
///
/// The operator reads the set through a slot its owner keeps (like
/// RedBlackOp's LevelOrigin): every scheme copies the operator at
/// construction, so pointing the slot at another set between sweeps
/// rebinds all of those copies at once.
struct VarCoefOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  const std::shared_ptr<const DiffusionCoefficients>* coeffs = nullptr;

  /// One cell — single source of truth for the floating-point expression.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, const double* cxm,
                     const double* cxp, const double* cym, const double* cyp,
                     const double* czm, const double* czp, int i) {
    const double denom = cxm[i] + cxp[i] + cym[i] + cyp[i] + czm[i] + czp[i];
    return denom > 0
               ? (cxm[i] * c[i - 1] + cxp[i] * c[i + 1] + cym[i] * jm[i] +
                  cyp[i] * jp[i] + czm[i] * km[i] + czp[i] * kp[i]) /
                     denom
               : c[i];
  }

  /// W cells of cell(), elementwise.  The scalar branch on denom becomes a
  /// lane blend; masked-off lanes divide by a substituted 1.0 so no lane
  /// ever divides by zero (the quotient is discarded by the blend), and
  /// selected lanes see the identical num/denom the scalar path computes.
  static util::simd::dvec cell_vec(const double* c, const double* jm,
                                   const double* jp, const double* km,
                                   const double* kp, const double* cxm,
                                   const double* cxp, const double* cym,
                                   const double* cyp, const double* czm,
                                   const double* czp, int i) {
    using V = util::simd::dvec;
    const V vxm = V::load(cxm + i);
    const V vxp = V::load(cxp + i);
    const V vym = V::load(cym + i);
    const V vyp = V::load(cyp + i);
    const V vzm = V::load(czm + i);
    const V vzp = V::load(czp + i);
    const V denom = vxm + vxp + vym + vyp + vzm + vzp;
    const V num = vxm * V::load(c + i - 1) + vxp * V::load(c + i + 1) +
                  vym * V::load(jm + i) + vyp * V::load(jp + i) +
                  vzm * V::load(km + i) + vzp * V::load(kp + i);
    const V safe = V::select_gt_zero(denom, denom, V::broadcast(1.0));
    return V::select_gt_zero(denom, num / safe, V::load(c + i));
  }

  void row(double* __restrict__ dst, const double* __restrict__ c,
           const double* __restrict__ jm, const double* __restrict__ jp,
           const double* __restrict__ km, const double* __restrict__ kp,
           int /*level*/, int j, int k, int i0, int i1) const {
    const auto f = (*coeffs)->rows(j, k);
    constexpr int W = util::simd::dvec::kWidth;
    int i = i0;
    for (; i + W <= i1; i += W)
      cell_vec(c, jm, jp, km, kp, f.xm, f.xp, f.ym, f.yp, f.zm, f.zp, i)
          .store(dst + i);
    for (; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, f.xm, f.xp, f.ym, f.yp, f.zm, f.zp, i);
  }
};

/// 27-point "box" smoother: the trilinear-weighted average of the full
/// 3^3 neighborhood (corner 1, edge 2, face 4, center 8; total 64) —
/// the separable [1 2 1]/4 filter applied along each axis.  This is the
/// densest operator the temporal-blocking contract admits (kHalo = 1)
/// and exercises every diagonal dependency of the skewed schedules.
///
/// The schemes only hand the operator five source-row pointers (center,
/// j±1, k±1), but all rows of one grid live in a single allocation with
/// constant j/k strides, so the four diagonal rows are recovered by
/// pointer arithmetic: row(j±1, k±1) = k-row ± (j-row − center-row).
/// This holds for the margin-shifted views of the compressed scheme too.
///
/// NO __restrict__ here, deliberately: in the compressed-grid scheme the
/// destination row aliases the source row (j-1, k-1) (forward sweeps,
/// which shift by (-1,-1,-1)) resp. (j+1, k+1) (backward sweeps), one
/// cell over, and Box27Op is the one operator that reads that row (its
/// corners).  row() orders its cells so each is read before the store
/// that overwrites it — but telling the compiler "no aliasing" would be
/// a lie.
struct Box27Op {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  /// One cell of the trilinear kernel.  Single source of truth for the
  /// floating-point expression: every traversal order must evaluate the
  /// identical arithmetic for bit-identical results.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, const double* kmjm,
                     const double* kmjp, const double* kpjm,
                     const double* kpjp, int i) {
    const double corners = (kmjm[i - 1] + kmjm[i + 1]) +
                           (kmjp[i - 1] + kmjp[i + 1]) +
                           (kpjm[i - 1] + kpjm[i + 1]) +
                           (kpjp[i - 1] + kpjp[i + 1]);
    const double edges = (jm[i - 1] + jm[i + 1]) + (jp[i - 1] + jp[i + 1]) +
                         (km[i - 1] + km[i + 1]) + (kp[i - 1] + kp[i + 1]) +
                         (kmjm[i] + kmjp[i]) + (kpjm[i] + kpjp[i]);
    const double faces = (c[i - 1] + c[i + 1]) + (jm[i] + jp[i]) +
                         (km[i] + kp[i]);
    return (corners + 2.0 * edges + (4.0 * faces + 8.0 * c[i])) / 64.0;
  }

  /// W cells of cell(), elementwise, identical grouping per lane.
  static util::simd::dvec cell_vec(const double* c, const double* jm,
                                   const double* jp, const double* km,
                                   const double* kp, const double* kmjm,
                                   const double* kmjp, const double* kpjm,
                                   const double* kpjp, int i) {
    using V = util::simd::dvec;
    const V corners = (V::load(kmjm + i - 1) + V::load(kmjm + i + 1)) +
                      (V::load(kmjp + i - 1) + V::load(kmjp + i + 1)) +
                      (V::load(kpjm + i - 1) + V::load(kpjm + i + 1)) +
                      (V::load(kpjp + i - 1) + V::load(kpjp + i + 1));
    const V edges = (V::load(jm + i - 1) + V::load(jm + i + 1)) +
                    (V::load(jp + i - 1) + V::load(jp + i + 1)) +
                    (V::load(km + i - 1) + V::load(km + i + 1)) +
                    (V::load(kp + i - 1) + V::load(kp + i + 1)) +
                    (V::load(kmjm + i) + V::load(kmjp + i)) +
                    (V::load(kpjm + i) + V::load(kpjp + i));
    const V faces = (V::load(c + i - 1) + V::load(c + i + 1)) +
                    (V::load(jm + i) + V::load(jp + i)) +
                    (V::load(km + i) + V::load(kp + i));
    return (corners + V::broadcast(2.0) * edges +
            (V::broadcast(4.0) * faces +
             V::broadcast(8.0) * V::load(c + i))) /
           V::broadcast(64.0);
  }

  void row(double* dst, const double* c, const double* jm, const double* jp,
           const double* km, const double* kp, int /*level*/, int /*j*/,
           int /*k*/, int i0, int i1) const {
    const std::ptrdiff_t up = jp - c;  // +1 row in j, same allocation
    const std::ptrdiff_t dn = jm - c;  // -1 row in j
    const double* kmjm = km + dn;
    const double* kmjp = km + up;
    const double* kpjm = kp + dn;
    const double* kpjp = kp + up;
    // A backward compressed sweep stores cell i over kpjp[i + 1], which
    // cells i + 1 and i + 2 still read: that row descends.  Elsewhere the
    // store is not read (two grids) or read only at or before the cell
    // that overwrites it (forward sweeps: dst == kmjm - 1), so the row
    // ascends.  Either way each location is read before it is written,
    // and a read-all-lanes-then-write-all-lanes W-block only moves reads
    // earlier and writes later, which keeps that order.
    constexpr int W = util::simd::dvec::kWidth;
    if (dst == kpjp + 1) {
      int i = i1 - W;
      for (; i >= i0; i -= W)
        cell_vec(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i)
            .store(dst + i);
      for (i += W - 1; i >= i0; --i)
        dst[i] = cell(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i);
      return;
    }
    int i = i0;
    for (; i + W <= i1; i += W)
      cell_vec(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i).store(dst + i);
    for (; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i);
  }
};

/// Two-color (red–black) Gauss–Seidel-style relaxation of the 7-point
/// Laplace stencil, expressed in the two-grid time-level contract: time
/// level L updates only the cells whose color (i+j+k parity) matches the
/// level parity — the six-neighbour average, reading the opposite color
/// at level L-1 — and copies the other color through unchanged.  Two
/// consecutive levels therefore perform one full red–black Gauss–Seidel
/// iteration: the second color sees the first color's fresh values, the
/// classic GS data flow, while every per-level update still only reads
/// level L-1 — which is what lets all temporal-blocking schemes run it
/// unmodified.
///
/// The color phase depends on the ABSOLUTE time level; schemes pass
/// run-local levels, so the facade owns a LevelOrigin and bumps its base
/// between phases.  A nullptr origin means the caller already passes
/// absolute levels (the distributed solver).
struct RedBlackOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  const LevelOrigin* origin = nullptr;

  /// Parity of the coordinate frame: a driver whose (i, j, k) are not
  /// the global grid coordinates (the distributed solver indexes the
  /// rank-local window) adds the parity of its window origin here so
  /// every rank colors cells by their GLOBAL coordinate sum.
  int parity = 0;

  [[nodiscard]] int absolute(int level) const {
    return (origin != nullptr ? origin->base : 0) + level;
  }

  /// One cell: update when the color matches the level parity, else copy.
  /// Single source of truth for the floating-point expression.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, int color, int i,
                     int jk_sum) {
    if (((i + jk_sum) & 1) != color) return c[i];
    return (c[i - 1] + c[i + 1] + jm[i] + jp[i] + km[i] + kp[i]) *
           (1.0 / 6.0);
  }

  void row(double* dst, const double* c, const double* jm, const double* jp,
           const double* km, const double* kp, int level, int j, int k,
           int i0, int i1) const {
    const int color = absolute(level) & 1;
    const int jk = j + k + parity;
    for (int i = i0; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, color, i, jk);
  }
};

// ---- state-fields halo contract ----------------------------------------
//
// Some operators carry read-write per-cell state *beside* the carrier
// grid pair the schemes schedule (lbm::LbmOp's 19 distribution lattices).
// Shared-memory schemes need no special handling — the side channel is
// indexed by logical coordinates and the two-grid invariant keeps its
// ping-pong safe — but a rank-decomposed driver must (a) know which
// fields exist, (b) build a rank-local window of them from the global
// inputs, and (c) refresh their ghost layers and gather their owned
// cells exactly like the carrier's.  StateFieldsTraits is that contract.
//
// The primary template is the opt-out: stateless operators, and operators
// whose auxiliary fields are read-only functions of global inputs that
// every rank can rebuild locally (VarCoefOp's face coefficients,
// RedBlackOp's parity), declare no state fields and the carrier exchange
// transports everything.  An operator opts in by specializing the traits
// with:
//
//   static constexpr bool kHasStateFields = true;
//   struct Params { ... };  // op-specific window construction inputs
//   class Window {
//     Window(const StateWindowSpec&, const Grid3& local_initial,
//            const Grid3* global_aux, const Params&);   // (b)
//     Op op();                              // operator bound to the window
//     static constexpr int field_count();   // (a)
//     /* range of Grid3* */ fields(int level);          // (c) — the
//     /* range of const Grid3* */ fields(int level) const;  // read-write
//     // fields holding ABSOLUTE time level `level`: what a ghost
//     // exchange must refresh before an epoch starting at that base
//     // level, and what a gather collects at the final level.
//   };
//
// Every field must be a Grid3 of the window's local shape, indexed by the
// same local (i, j, k) as the carrier, so one exchange geometry serves
// the carrier and all declared fields.

/// Rank-window frame for cutting an operator's side-channel state out of
/// the global problem: the distributed driver fills one in per rank.
/// `origin` may be negative and `origin + local_n` may exceed `global_n`
/// on physical-boundary sides — window cells outside the global domain
/// are never read by an admissible update.
struct StateWindowSpec {
  std::array<int, 3> global_n{};  ///< global grid extents
  std::array<int, 3> origin{};    ///< global index of local cell (0,0,0)
  std::array<int, 3> local_n{};   ///< local extents (owned + 2 * halo)
};

/// Primary template: no read-write side-channel fields (see the contract
/// comment above).  Specialized per operator, e.g. for lbm::LbmOp in
/// lbm/stencil_op.hpp.
template <class Op>
struct StateFieldsTraits {
  static constexpr bool kHasStateFields = false;
  struct Params {};  ///< no construction inputs
  struct Window {};  ///< no side-channel state
};

/// Applies one operator level over window `w`: dst <- op(src) producing
/// time level `level` (run-local, see the concept comment).
template <class Op>
inline void apply_box(const Op& op, const Grid3& src, Grid3& dst,
                      const Box& w, int level) {
  for (int k = w.lo[2]; k < w.hi[2]; ++k)
    for (int j = w.lo[1]; j < w.hi[1]; ++j)
      op.row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
             src.row(j + 1, k), src.row(j, k - 1), src.row(j, k + 1), level,
             j, k, w.lo[0], w.hi[0]);
}

/// One naive sweep over the full interior [1, n-1)^3 producing time level
/// `level` — the correctness oracle, generic over the operator.  Boundary
/// layers are untouched.
template <class Op>
inline void reference_sweep_op(const Op& op, const Grid3& src, Grid3& dst,
                               int level = 1) {
  Box all;
  all.lo = {1, 1, 1};
  all.hi = {src.nx() - 1, src.ny() - 1, src.nz() - 1};
  apply_box(op, src, dst, all, level);
}

/// Runs `steps` naive sweeps alternating between `a` and `b` (levels
/// 1..steps); `a` holds the initial data and both grids carry the
/// Dirichlet boundary.  Returns the grid holding the final level.
template <class Op>
inline Grid3& reference_solve_op(const Op& op, Grid3& a, Grid3& b,
                                 int steps) {
  Grid3* src = &a;
  Grid3* dst = &b;
  for (int s = 0; s < steps; ++s) {
    reference_sweep_op(op, *src, *dst, s + 1);
    std::swap(src, dst);
  }
  return *src;
}

}  // namespace tb::core
