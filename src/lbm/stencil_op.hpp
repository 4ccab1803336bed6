// D3Q19 lattice-Boltzmann as a first-class StencilOp.
//
// The paper's point is that one temporal-blocking machinery serves both
// the Jacobi prototype and the announced LBM flow solver.  This header
// delivers that literally: stream-collide is an operator on the generic
// scheme templates (BaselineSolver<LbmOp>, PipelinedSolver<LbmOp> — also
// behind the wavefront preset — and CompressedSolver<LbmOp>) instead of
// its own engine client.
//
// Multi-component state.  The schemes move a scalar *carrier* grid pair
// through their schedules; the 19 particle distributions and the
// geometry flags live in an LbmState side channel the operator indexes
// with the LOGICAL (i, j, k) — the same mechanism VarCoefOp uses for its
// face-coefficient fields, extended from read-only coefficients to
// read-write state.  Two storage policies lay the distributions out:
//
//  * kTwoLattice — a plain ping-pong indexed by the ABSOLUTE time-level
//    parity.  Lattice L%2 holds level L; the side channel is oblivious
//    to how the carrier is stored.
//  * kAA — ONE lattice updated in place (the AA pattern).  Odd absolute
//    levels are produced by a purely cell-local step that reads the
//    streamed arrangement left by the previous even level (A_q(x) holds
//    level-even f_q(x - e_q)) and writes each fout[q] into the opposite
//    slot A_opp(q)(x); even levels are produced by a stream step that
//    pulls from the reversed slots of the neighbours
//    (fin[q] = A_opp(q)(x - e_q)) and pushes fout[q] to A_q(x + e_q).
//    Pushes into solid neighbours are deliberate: they park exactly the
//    value the next local step's bounce-back read A_opp(q)(x - e_q)
//    picks up.  Storage is halved and every store hits a line the
//    update already loaded, so the write-allocate stream disappears
//    (lbm::bytes_per_update_aa).
//
// Why any scheme schedule is correct for the side channel: every scheme
// in this library maintains the two-grid invariant that a cell is
// advanced to level L only when all 3^3 neighbours hold level L-1 and no
// neighbour has passed L (adjacent levels differ by at most one).  For
// the ping-pong this is the classic argument: writing a cell's level-L
// distributions overwrites its level-(L-2) values, whose last readers
// were the neighbours' updates to L-1.  For AA the same invariant
// suffices: the local step writes only its own cell's slots, and the
// stream step's push into slot (q, x + e_q) is safe because the only
// level-L reader of that slot is cell x itself (fin[opp(q)] of x's own
// update — which reads all 19 slots before writing any), and its only
// writer is x, so neither another cell's concurrent update nor the
// order of cells within a row can expose a half-updated slot.  The engine's
// release/acquire progress counters (core/sync.hpp) provide the
// happens-before edges for the side-channel writes.
//
// The AA constraint: the outermost layer must be fully solid.  A fluid
// boundary cell would never be updated, freezing its slots while the
// interior's alternate between arrangements — the constructor rejects
// such geometries.  The distributed layer cannot run AA at all (the
// stream step pushes INTO the ghost ring, which the read-only halo
// contract of StateFieldsTraits cannot transport back), so the state
// window refuses the policy and dist names reject it up front.
//
// The carrier holds the fluid density: level 0 is the caller's initial
// grid (interpreted as the initial density; the distributions start at
// the corresponding zero-velocity equilibrium), each fluid update writes
// the cell's density (BGK conserves it through the collision), and solid
// cells copy through.  StencilSolver::solution() therefore reports the
// evolved density field, and the full-matrix bit-identity tests compare
// real physics, not a dummy payload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/stencil_op.hpp"
#include "lbm/kernel.hpp"
#include "util/slices.hpp"

namespace tb::lbm {

/// Decodes a per-cell geometry field (the operator's analogue of the
/// varcoef kappa side channel): 0 = fluid, 1 = no-slip wall, 2 = moving
/// lid.  Any other value throws — geometry codes are exact small
/// integers, never measured data.
[[nodiscard]] inline Geometry geometry_from_codes(
    const core::Grid3& codes) {
  Geometry geo(codes.nx(), codes.ny(), codes.nz());
  for (int k = 0; k < codes.nz(); ++k)
    for (int j = 0; j < codes.ny(); ++j)
      for (int i = 0; i < codes.nx(); ++i) {
        const double v = codes.at(i, j, k);
        if (v == 0.0)
          geo.set(i, j, k, Cell::kFluid);
        else if (v == 1.0)
          geo.set(i, j, k, Cell::kWall);
        else if (v == 2.0)
          geo.set(i, j, k, Cell::kLid);
        else
          throw std::invalid_argument(
              "lbm::geometry_from_codes: cell values must be 0 (fluid), "
              "1 (wall) or 2 (lid)");
      }
  return geo;
}

/// The operator's side-channel state: geometry flags (plus their
/// precomputed per-cell bounce-back masks), BGK parameters and the
/// distribution storage — the two-lattice ping-pong or the in-place AA
/// lattice, per LbmStorage.  The LevelOrigin turns the schemes'
/// run-local level argument into the absolute level; the StencilSolver
/// facade bumps it between phases.
class LbmState {
 public:
  /// `initial_density` supplies the level-0 density per cell; the
  /// distributions start at the zero-velocity equilibrium of that
  /// density (non-positive values — unphysical for LBM — fall back to
  /// cfg.rho0, so pattern-filled probe grids stay finite).  The masks
  /// and distributions are built over z-slices on `threads` threads,
  /// here and in every reset(); the bits do not depend on the count.
  LbmState(Geometry geo, const LbmConfig& cfg,
           const core::Grid3& initial_density,
           LbmStorage storage = LbmStorage::kTwoLattice, int threads = 1)
      : geo_(std::move(geo)),
        cfg_(cfg),
        storage_(storage),
        lid_(cfg),
        threads_(std::max(1, threads)) {
    cfg_.validate();
    const int nx = initial_density.nx(), ny = initial_density.ny(),
              nz = initial_density.nz();
    if (geo_.nx() != nx || geo_.ny() != ny || geo_.nz() != nz)
      throw std::invalid_argument(
          "LbmState: geometry shape must match the initial grid");
    check_hull(geo_);
    build_masks();
    fill_distributions(initial_density);
  }

  /// Rewinds the state to level 0 for a new initial density — and, when
  /// `new_geometry` is non-null, a new geometry of the same shape —
  /// reusing every allocation (the lattices and density cache are
  /// refilled in place; the masks are rebuilt only for a new geometry).
  /// Bit-identical to constructing a fresh state on the same inputs; the
  /// mechanism behind StencilSolver::reset for the lbm operator.  Throws
  /// on shape mismatches and, for AA storage, on a geometry whose outer
  /// layer is not fully solid; the state is unchanged then.
  void reset(const core::Grid3& initial_density,
             const Geometry* new_geometry) {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    if (initial_density.nx() != nx || initial_density.ny() != ny ||
        initial_density.nz() != nz)
      throw std::invalid_argument(
          "LbmState::reset: initial-density shape must match the "
          "constructed shape");
    if (new_geometry != nullptr) {
      if (new_geometry->nx() != nx || new_geometry->ny() != ny ||
          new_geometry->nz() != nz)
        throw std::invalid_argument(
            "LbmState::reset: geometry shape must match the constructed "
            "shape");
      check_hull(*new_geometry);
      geo_ = *new_geometry;
      build_masks();
    }
    fill_distributions(initial_density);
  }

  [[nodiscard]] const Geometry& geometry() const { return geo_; }
  [[nodiscard]] const LbmConfig& config() const { return cfg_; }
  [[nodiscard]] LbmStorage storage() const { return storage_; }
  [[nodiscard]] const LidTerms& lid_terms() const { return lid_; }

  /// Fluid cells in the interior — the updates one level actually
  /// performs (solid cells only copy the carrier through), which is what
  /// MLUP/s accounting must count.
  [[nodiscard]] long long fluid_interior_cells() const {
    return fluid_interior_;
  }

  /// Geometry-mask row (j, k), indexed by i like the carrier rows.
  [[nodiscard]] const std::uint64_t* mask_row(int j, int k) const {
    return masks_.data() +
           (static_cast<std::size_t>(k) * geo_.ny() + j) * geo_.nx();
  }

  /// Lattice holding the distributions of time levels with parity `p`
  /// (any integer; the parity is normalized, so negative absolute levels
  /// land on the mathematically correct lattice).  Only the two-lattice
  /// storage has this layout — AA states throw std::logic_error.
  [[nodiscard]] Lattice& lattice(int p) {
    require_two_lattice("lattice");
    return ((p % 2) + 2) % 2 == 0 ? *even_ : *odd_;
  }
  [[nodiscard]] const Lattice& lattice(int p) const {
    require_two_lattice("lattice");
    return ((p % 2) + 2) % 2 == 0 ? *even_ : *odd_;
  }

  /// The in-place AA lattice (throws std::logic_error for two-lattice
  /// states).
  [[nodiscard]] Lattice& aa() {
    require_aa("aa");
    return *aa_;
  }
  [[nodiscard]] const Lattice& aa() const {
    require_aa("aa");
    return *aa_;
  }

  /// The distributions of absolute time level `level` (e.g.
  /// StencilSolver::levels_done()) — the lattice to read diagnostics
  /// (velocity, density moments) from.  Levels are absolute by contract:
  /// negative values throw std::invalid_argument instead of silently
  /// selecting a wrong parity.  For AA storage this decodes the in-place
  /// arrangement into an internal scratch lattice (solid cells report
  /// their untouched initial equilibrium, exactly like the ping-pong),
  /// so the returned reference is invalidated by the next current()
  /// call.
  [[nodiscard]] const Lattice& current(int level) const {
    if (level < 0)
      throw std::invalid_argument(
          "LbmState::current: absolute level must be >= 0, got " +
          std::to_string(level));
    if (storage_ == LbmStorage::kTwoLattice) return lattice(level);
    if (!decode_) decode_.emplace(geo_.nx(), geo_.ny(), geo_.nz());
    const bool even = level % 2 == 0;
    for (int k = 0; k < geo_.nz(); ++k)
      for (int j = 0; j < geo_.ny(); ++j)
        for (int i = 0; i < geo_.nx(); ++i) {
          if (geo_.at(i, j, k) != Cell::kFluid) {
            // Solid slots are never written by either policy: report the
            // same initial equilibrium the ping-pong leaves in place.
            const double rho = rho_init_->at(i, j, k);
            for (int q = 0; q < kQ; ++q)
              decode_->f(q).at(i, j, k) =
                  equilibrium(q, rho, 0.0, 0.0, 0.0);
          } else if (even) {
            // After an even level, A_q(x) = f_q(x - e_q)  =>
            // f_q(x) = A_q(x + e_q); fluid cells are interior (solid
            // hull), so x + e_q is always in range.
            for (int q = 0; q < kQ; ++q) {
              const auto& e = kVelocities[static_cast<std::size_t>(q)];
              decode_->f(q).at(i, j, k) =
                  aa_->f(q).at(i + e[0], j + e[1], k + e[2]);
            }
          } else {
            // After an odd level the arrangement is cell-local with
            // reversed direction slots: f_q(x) = A_opp(q)(x).
            for (int q = 0; q < kQ; ++q)
              decode_->f(q).at(i, j, k) = aa_->f(opposite(q)).at(i, j, k);
          }
        }
    return *decode_;
  }

  core::LevelOrigin origin;  ///< run-local level -> absolute level

  /// Software-prefetch distance (cells ahead) for the row kernel's 19
  /// pull streams; 0 disables.  A tuner axis (SolverConfig::lbm_prefetch)
  /// — purely a performance hint, never changes results.
  int prefetch = 0;

 private:
  void require_two_lattice(const char* fn) const {
    if (storage_ != LbmStorage::kTwoLattice)
      throw std::logic_error(std::string("LbmState::") + fn +
                             ": the parity ping-pong is a two-lattice "
                             "layout; this state uses AA storage");
  }
  void require_aa(const char* fn) const {
    if (storage_ != LbmStorage::kAA)
      throw std::logic_error(std::string("LbmState::") + fn +
                             ": this state uses two-lattice storage");
  }

  /// For AA storage, throws unless every boundary cell of `geo` is
  /// solid: the alternating in-place arrangement would freeze a fluid
  /// hull cell at level 0 while the interior alternates.  Runs serially
  /// before the slices, which must not throw.
  void check_hull(const Geometry& geo) const {
    if (storage_ != LbmStorage::kAA) return;
    const int nx = geo.nx(), ny = geo.ny(), nz = geo.nz();
    const auto solid = [&](int i, int j, int k) {
      if (geo.at(i, j, k) == Cell::kFluid)
        throw std::invalid_argument(
            "LbmState: the AA storage policy requires a fully solid "
            "outer layer (fluid boundary cells break the in-place "
            "alternation)");
    };
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < ny; ++j) {
        if (k == 0 || k == nz - 1 || j == 0 || j == ny - 1) {
          for (int i = 0; i < nx; ++i) solid(i, j, k);
        } else {
          solid(0, j, k);
          solid(nx - 1, j, k);
        }
      }
  }

  /// Builds the per-cell masks of geo_ and the fluid-cell count: at
  /// construction and when reset() brings a new geometry.  The passes
  /// here and in fill_distributions write z-slices on threads_ threads,
  /// and every value they write is a function of the inputs at fixed
  /// cells, so the bits do not depend on the split.
  void build_masks() {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    // Geometry masks (interior cells; the outermost layer is never
    // updated, its entries only mark it solid for the row kernels) and
    // the fluid-cell count the throughput accounting reports, summed
    // per slice.
    masks_.resize(static_cast<std::size_t>(nx) * ny * nz);
    std::vector<long long> fluid(static_cast<std::size_t>(threads_), 0);
    util::for_each_slice(threads_, 0, nz, [&](int t, int k0, int k1) {
      long long count = 0;
      for (int k = k0; k < k1; ++k)
        for (int j = 0; j < ny; ++j) {
          std::uint64_t* m =
              masks_.data() + (static_cast<std::size_t>(k) * ny + j) * nx;
          const bool face = k == 0 || k == nz - 1 || j == 0 || j == ny - 1;
          for (int i = 0; i < nx; ++i) {
            m[i] = face || i == 0 || i == nx - 1 ? kMaskSolid
                                                 : cell_mask(geo_, i, j, k);
            if (!(m[i] & kMaskSolid)) ++count;
          }
        }
      fluid[static_cast<std::size_t>(t)] = count;
    });
    fluid_interior_ = 0;
    for (const long long c : fluid) fluid_interior_ += c;
  }

  /// Fills the distributions with the level-0 equilibrium of the
  /// density `rho_in`.  Lattices are allocated only when not yet
  /// engaged, so a reset refills the existing buffers in place.
  void fill_distributions(const core::Grid3& rho_in) {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    const double rho0 = cfg_.rho0;
    const auto resolved = [rho0](double r) { return r > 0.0 ? r : rho0; };

    if (storage_ == LbmStorage::kTwoLattice) {
      if (!even_) even_.emplace(nx, ny, nz);
      if (!odd_) odd_.emplace(nx, ny, nz);
      util::for_each_slice(threads_, 0, nz, [&](int, int k0, int k1) {
        for (int k = k0; k < k1; ++k)
          for (int j = 0; j < ny; ++j) {
            const double* rho = rho_in.row(j, k);
            for (int q = 0; q < kQ; ++q) {
              double* ev = even_->f(q).row(j, k);
              double* od = odd_->f(q).row(j, k);
              for (int i = 0; i < nx; ++i) {
                const double feq =
                    equilibrium(q, resolved(rho[i]), 0.0, 0.0, 0.0);
                ev[i] = feq;
                od[i] = feq;
              }
            }
          }
      });
      return;
    }

    // AA storage.  Level 0 is even, so the lattice must hold the
    // STREAMED arrangement of the level-0 equilibrium:
    // A_q(y) = f_q(y - e_q).  Slots whose source lies outside the box
    // are never read; park them at the reference-density equilibrium.
    // The source density is resolved from the input directly, so no
    // slice reads another slice's rho_init_ planes.
    if (!rho_init_) rho_init_.emplace(nx, ny, nz);
    if (!aa_) aa_.emplace(nx, ny, nz);
    util::for_each_slice(threads_, 0, nz, [&](int, int k0, int k1) {
      for (int k = k0; k < k1; ++k)
        for (int j = 0; j < ny; ++j) {
          const double* rho = rho_in.row(j, k);
          double* init = rho_init_->row(j, k);
          for (int i = 0; i < nx; ++i) init[i] = resolved(rho[i]);
          for (int q = 0; q < kQ; ++q) {
            const auto& e = kVelocities[static_cast<std::size_t>(q)];
            const int sj = j - e[1], sk = k - e[2];
            const bool row_in = sj >= 0 && sj < ny && sk >= 0 && sk < nz;
            const double* src = row_in ? rho_in.row(sj, sk) : nullptr;
            double* out = aa_->f(q).row(j, k);
            for (int i = 0; i < nx; ++i) {
              const int si = i - e[0];
              const double r =
                  row_in && si >= 0 && si < nx ? resolved(src[si]) : rho0;
              out[i] = equilibrium(q, r, 0.0, 0.0, 0.0);
            }
          }
        }
    });
  }

  Geometry geo_;
  LbmConfig cfg_;
  LbmStorage storage_;
  LidTerms lid_;
  std::vector<std::uint64_t> masks_;   ///< per-cell geometry masks
  long long fluid_interior_ = 0;
  std::optional<Lattice> even_, odd_;  ///< two-lattice storage
  std::optional<Lattice> aa_;          ///< AA storage
  std::optional<core::Grid3> rho_init_;        ///< AA: resolved level-0 density
  mutable std::optional<Lattice> decode_;      ///< AA: current() scratch
  int threads_ = 1;  ///< set-up threads of build_masks, fill_distributions
};

/// D3Q19 stream-collide as a StencilOp.  The carrier update writes the
/// fluid density (solid cells copy through), the real state advances in
/// the LbmState side channel; see the header comment for why every
/// scheme schedule is safe for both storage policies.  No __restrict__:
/// in the compressed scheme the carrier dst row aliases the source row
/// (j∓1, k∓1), harmless in either row order because a cell reads only
/// the centre row's c[i].
struct LbmOp {
  static constexpr int kHalo = 1;
  // Every level-L store is first read at level L+1, so skipping the
  // write-allocate with non-temporal stores is pure win for the standard
  // algorithm.  The two-lattice wiring streams the carrier and all 19
  // fout rows; the AA wirings stream only the carrier — their lattice
  // writes land in lines the update just loaded (no write-allocate to
  // skip), and the stream step's +e[0]-shifted stores are off the
  // alignment class anyway.
  static constexpr bool kHasNontemporal = true;

  LbmState* state = nullptr;

  void row(double* dst, const double* c, const double* /*jm*/,
           const double* /*jp*/, const double* /*km*/,
           const double* /*kp*/, int level, int j, int k, int i0,
           int i1) const {
    row_impl(dst, c, level, j, k, i0, i1);
  }

  void row_nt(double* dst, const double* c, const double* /*jm*/,
              const double* /*jp*/, const double* /*km*/,
              const double* /*kp*/, int level, int j, int k, int i0,
              int i1) const {
    // row_impl narrows the flag per wiring: two-lattice streams carrier
    // and lattice, AA streams the carrier only (see kHasNontemporal).
    row_impl<util::simd::kHasStream>(dst, c, level, j, k, i0, i1);
  }

 private:
  /// Wires the row pointer bundle for the storage policy and the level
  /// parity, then runs the shared masked kernel.  The three wirings are
  /// documented at lbm::LatticeRow.
  template <bool Stream = false>
  void row_impl(double* dst, const double* c, int level, int j, int k,
                int i0, int i1) const {
    LbmState& s = *state;
    const int abs_level = s.origin.base + level;
    LatticeRow r;
    if (s.storage() == LbmStorage::kTwoLattice) {
      const Lattice& src = s.lattice(abs_level + 1);
      Lattice& dst_lat = s.lattice(abs_level);
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = src.f(q).row(j - e[1], k - e[2]) - e[0];
        r.bb[uq] = src.f(opposite(q)).row(j, k);
        r.out[uq] = dst_lat.f(q).row(j, k);
      }
      masked_stream_collide_row<Stream, Stream>(
          s.config(), s.lid_terms(), s.mask_row(j, k), r, dst, c, i0, i1,
          s.prefetch);
      return;
    }
    if (((abs_level % 2) + 2) % 2 == 1) {
      // AA local step (produces an odd level): cell-local reads of the
      // streamed arrangement, writes into the opposite slots.
      Lattice& a = s.aa();
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = a.f(q).row(j, k);
        r.bb[uq] = a.f(opposite(q)).row(j - e[1], k - e[2]) - e[0];
        r.out[uq] = a.f(opposite(q)).row(j, k);
      }
    } else {
      // AA stream step (produces an even level): pull from the
      // neighbours' reversed slots, push along the direction — including
      // into solid neighbours, which parks the next local step's
      // bounce-back values.
      Lattice& a = s.aa();
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = a.f(opposite(q)).row(j - e[1], k - e[2]) - e[0];
        r.bb[uq] = a.f(q).row(j, k);
        r.out[uq] = a.f(q).row(j + e[1], k + e[2]) + e[0];
      }
    }
    // AA wirings stream the carrier only: the in-place lattice writes
    // hit already-loaded lines (nothing to skip), and the stream step's
    // +e[0] shift breaks the lattice stores' alignment class anyway.
    masked_stream_collide_row<Stream, false>(
        s.config(), s.lid_terms(), s.mask_row(j, k), r, dst, c, i0, i1,
        s.prefetch);
  }
};

}  // namespace tb::lbm

namespace tb::core {

/// State-fields halo contract of the lbm operator (see the contract
/// comment in core/stencil_op.hpp): the read-write side channel is the
/// two-lattice distribution ping-pong — the fields of absolute level L
/// are the 19 component grids of lattice L%2, which is what a ghost
/// exchange must refresh before an epoch starting at base level L (the
/// first update of the epoch pulls level-L distributions from the ghost
/// region) and what a gather collects at the final level.  The geometry
/// flags are NOT a state field: they are a read-only function of global
/// inputs (the geometry-code aux grid, or the default lid-driven cavity
/// of the global shape), so every rank cuts its own window instead of
/// exchanging them — the same reasoning that keeps varcoef's face
/// coefficients out of the wire.
///
/// The AA storage policy has NO state-fields representation: its stream
/// step pushes into the ghost ring, i.e. it needs a write-back halo the
/// read-only contract cannot express, so the window refuses the policy
/// at construction (shared-memory schemes run AA through LbmState
/// directly; the dist registry rejects "lbm:aa" names up front).
template <>
struct StateFieldsTraits<lbm::LbmOp> {
  static constexpr bool kHasStateFields = true;

  /// Window construction inputs beyond the rank frame, mirroring
  /// SolverConfig's lbm knobs.
  struct Params {
    lbm::LbmConfig physics{};
    bool geometry_from_aux = false;
    lbm::LbmStorage storage = lbm::LbmStorage::kTwoLattice;
  };

  /// Rank-local window of the operator state: geometry cut from the
  /// global codes (or the global-shape default cavity) at the rank
  /// window, distributions initialized to the equilibrium of the local
  /// density window — cell for cell the same bits a global LbmState
  /// holds at the matching global coordinates.
  class Window {
   public:
    /// `local_initial` is the rank-local window of the global initial
    /// density (out-of-domain cells may hold anything; they are never
    /// read).  `global_aux` supplies the geometry codes when
    /// `params.geometry_from_aux` is set — required then, with the
    /// global shape — and is ignored otherwise.  Throws
    /// std::invalid_argument on a missing or ill-shaped aux grid, or on
    /// the (unsupported) AA storage policy.
    Window(const StateWindowSpec& spec, const Grid3& local_initial,
           const Grid3* global_aux, const Params& params)
        : state_(window_geometry(spec, global_aux, params), params.physics,
                 local_initial, checked_storage(params)) {}

    /// Operator bound to this window's state.
    [[nodiscard]] lbm::LbmOp op() { return lbm::LbmOp{&state_}; }

    [[nodiscard]] static constexpr int field_count() { return lbm::kQ; }

    /// The per-cell fields holding absolute time level `level`'s
    /// distributions.  Levels are absolute: negative values are outside
    /// the contract and throw.
    [[nodiscard]] std::array<Grid3*, lbm::kQ> fields(int level) {
      std::array<Grid3*, lbm::kQ> out{};
      lbm::Lattice& lat = state_.lattice(checked_level(level));
      for (int q = 0; q < lbm::kQ; ++q)
        out[static_cast<std::size_t>(q)] = &lat.f(q);
      return out;
    }
    [[nodiscard]] std::array<const Grid3*, lbm::kQ> fields(
        int level) const {
      std::array<const Grid3*, lbm::kQ> out{};
      const lbm::Lattice& lat = state_.lattice(checked_level(level));
      for (int q = 0; q < lbm::kQ; ++q)
        out[static_cast<std::size_t>(q)] = &lat.f(q);
      return out;
    }

    [[nodiscard]] const lbm::LbmState& state() const { return state_; }

   private:
    [[nodiscard]] static int checked_level(int level) {
      if (level < 0)
        throw std::invalid_argument(
            "lbm state window: fields() takes an absolute (non-negative) "
            "time level, got " + std::to_string(level));
      return level;
    }

    [[nodiscard]] static lbm::LbmStorage checked_storage(
        const Params& params) {
      if (params.storage != lbm::LbmStorage::kTwoLattice)
        throw std::invalid_argument(
            "lbm state window: the AA storage policy is shared-memory "
            "only — its stream step pushes into the ghost ring, which "
            "the read-only state-fields halo cannot transport");
      return params.storage;
    }

    [[nodiscard]] static lbm::Geometry window_geometry(
        const StateWindowSpec& spec, const Grid3* global_aux,
        const Params& params) {
      // Deliberately decodes (and validates) the WHOLE global geometry
      // before cutting the window, although only the window is kept: an
      // invalid code must throw on *every* rank, not just the ranks
      // whose window contains it — a rank-divergent throw would leave
      // the surviving ranks deadlocked in the halo exchange (the same
      // global-rule reasoning as the admissibility checks).  The cost is
      // one O(global) pass per rank at construction, never per epoch.
      const lbm::Geometry global =
          params.geometry_from_aux
              ? decoded_codes(spec, global_aux)
              : lbm::Geometry::cavity(spec.global_n[0], spec.global_n[1],
                                      spec.global_n[2]);
      lbm::Geometry w(spec.local_n[0], spec.local_n[1], spec.local_n[2]);
      for (int k = 0; k < spec.local_n[2]; ++k)
        for (int j = 0; j < spec.local_n[1]; ++j)
          for (int i = 0; i < spec.local_n[0]; ++i) {
            const int gi = spec.origin[0] + i;
            const int gj = spec.origin[1] + j;
            const int gk = spec.origin[2] + k;
            const bool in_domain =
                gi >= 0 && gi < spec.global_n[0] && gj >= 0 &&
                gj < spec.global_n[1] && gk >= 0 && gk < spec.global_n[2];
            // Out-of-domain window cells (beyond the physical boundary)
            // are never read; mark them solid.
            w.set(i, j, k,
                  in_domain ? global.at(gi, gj, gk) : lbm::Cell::kWall);
          }
      return w;
    }

    [[nodiscard]] static lbm::Geometry decoded_codes(
        const StateWindowSpec& spec, const Grid3* global_aux) {
      if (global_aux == nullptr)
        throw std::invalid_argument(
            "lbm state window: geometry_from_aux needs the global "
            "geometry-code aux grid (0 = fluid, 1 = wall, 2 = lid) — "
            "passed where varcoef passes its kappa field");
      if (global_aux->nx() != spec.global_n[0] ||
          global_aux->ny() != spec.global_n[1] ||
          global_aux->nz() != spec.global_n[2])
        throw std::invalid_argument(
            "lbm state window: the geometry-code aux grid must match the "
            "global grid shape");
      return lbm::geometry_from_codes(*global_aux);
    }

    lbm::LbmState state_;
  };
};

}  // namespace tb::core

namespace tb::lbm {

/// Naive reference advance of an LbmState by `steps` absolute levels
/// starting after `base_level` — the oracle the equivalence tests pit
/// the scheme templates (and both storage policies) against, built
/// directly on the cell kernel over the two-lattice ping-pong.
/// `carrier` mirrors what the solver facade maintains: each level writes
/// every interior fluid cell's density (the kernel's own return value,
/// for bit-exact comparison); solid cells keep their previous value.
inline void reference_advance(LbmState& state, core::Grid3& carrier,
                              int steps, int base_level = 0) {
  for (int s = 0; s < steps; ++s) {
    const int level = base_level + s + 1;
    const Lattice& src = state.lattice(level + 1);
    Lattice& dst = state.lattice(level);
    for (int k = 1; k < carrier.nz() - 1; ++k)
      for (int j = 1; j < carrier.ny() - 1; ++j)
        for (int i = 1; i < carrier.nx() - 1; ++i)
          if (state.geometry().at(i, j, k) == Cell::kFluid)
            carrier.at(i, j, k) = stream_collide_cell(
                state.geometry(), state.config(), src, dst, i, j, k);
  }
}

}  // namespace tb::lbm
