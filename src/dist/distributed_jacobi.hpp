// Distributed pipelined stencil solver on the in-process rank runtime
// (Sec. 2.1), generic over the StencilOp — every registry operator, from
// the constant-coefficient Jacobi to the D3Q19 lattice-Boltzmann update.
//
// The global grid is block-decomposed over a 3-D Cartesian process grid.
// Each rank owns a box of interior cells surrounded by a ghost region of
// width h = levels_per_sweep().  One *epoch* advances the whole domain by
// h time levels: a multi-layer halo exchange (x -> y -> z, so edge and
// corner data propagates in two respectively three hops) refreshes the
// ghost layers once, then the rank-local pipelined solver performs the h
// levels with per-level update regions that shrink into the ghost zone by
// one cell per level — exactly the "shifting the block by one cell in each
// direction after an update" geometry of the shared-memory scheme, applied
// at the subdomain boundary.
//
// Operators whose real state is wider than the carrier grid pair take
// part through the state-fields contract (core/stencil_op.hpp
// StateFieldsTraits): the operator builds a rank-local window of its
// side-channel fields from the global inputs, and the exchange runs over
// the carrier *plus every declared field* each epoch — for lbm::LbmOp the
// base-level 19-component distribution lattice rides the same x -> y -> z
// slabs (aggregated into the same six messages, D3Q19 reads stay within
// the 3^3 neighborhood so the deep-halo geometry is unchanged), and
// gather_state() collects the final-level fields alongside the carrier.
//
// Bit compatibility: every cell update evaluates the identical
// floating-point expression as the naive reference solver, and the ghost
// exchange transports exact IEEE doubles, so the decomposed solver is
// bit-identical to the single-rank run for any process grid.
//
// Timing: data movement is real; *time* is simulated.  Communication
// advances the per-rank clocks through the NetworkModel; computation is
// charged via Comm::compute() at a modeled proc_lups rate.  Every epoch
// walks one Decomposition::halo_plan() built at construction: the
// sequential x -> y -> z plan (6 messages per interior rank), or with
// DistConfig::overlap the direct plan of up to 26 face, edge and corner
// messages.  In overlap mode sends are non-blocking and the inner-cell
// computation is charged before the ghost receives, so the receive wait
// absorbs the inner work — the paper's Sec. 3 outlook.  Only the clock
// sees that overlap: the real sweep still starts after every ghost has
// arrived.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/grid.hpp"
#include "core/pipeline.hpp"
#include "core/stencil_op.hpp"
#include "dist/decomposition.hpp"
#include "lbm/stencil_op.hpp"  // LbmConfig + StateFieldsTraits<LbmOp>
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "simnet/comm.hpp"
#include "topo/placement.hpp"

namespace tb::dist {

/// Parameters of the distributed solve.
struct DistConfig {
  std::array<int, 3> proc_dims{1, 1, 1};  ///< Cartesian process grid
  core::PipelineConfig pipeline{};        ///< per-rank pipeline parameters
  double proc_lups = 1.0e9;  ///< modeled per-rank update rate [LUP/s]
  bool overlap = false;      ///< overlap communication with inner updates

  /// Physics parameters of the lbm operator (ignored by all others),
  /// mirroring SolverConfig::lbm.
  lbm::LbmConfig lbm{};
  /// Decode the aux grid as lbm per-cell geometry codes (0 = fluid,
  /// 1 = wall, 2 = lid) instead of using the default lid-driven cavity —
  /// the lbm analogue of varcoef's kappa, see SolverConfig.
  bool lbm_geometry_from_aux = false;
};

/// Communication volume observed by one rank.
struct CommVolume {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Result of DistributedJacobi::advance on the calling rank.
struct DistStats {
  double sim_seconds = 0.0;  ///< simulated clock at the end of the call
  CommVolume comm;           ///< volume sent during the call
  int levels = 0;            ///< time levels advanced
};

/// Executing distributed solver: one instance per rank, constructed inside
/// World::run.  `Op` selects the stencil operator; `global_aux` carries
/// the operator's global auxiliary field where one exists — the kappa
/// material field of VarCoefOp (face coefficients are rebuilt from the
/// rank-local window, which yields the identical IEEE doubles as a global
/// computation), the geometry codes of lbm::LbmOp when
/// cfg.lbm_geometry_from_aux is set.  Operators with read-write
/// side-channel state (lbm::LbmOp) construct a rank-local state window
/// through core::StateFieldsTraits and have every declared field
/// ghost-exchanged alongside the carrier.
template <class Op = core::JacobiOp>
class DistributedStencil {
 public:
  DistributedStencil(simnet::Comm& comm, const DistConfig& cfg,
                     const core::Grid3& global_initial,
                     const core::Grid3* global_aux = nullptr)
      : comm_(comm),
        cfg_(cfg),
        halo_(cfg.pipeline.levels_per_sweep()),
        global_n_{global_initial.nx(), global_initial.ny(),
                  global_initial.nz()},
        // Decomposition performs the admissibility checks (more ranks
        // than interior cells, subdomain thinner than the halo) — they
        // depend only on global inputs, so ranks of an uneven partition
        // agree on whether to throw and none is left behind in the
        // exchange.
        decomp_(global_n_, cfg.proc_dims, halo_) {
    if (comm.size() != decomp_.ranks())
      throw std::invalid_argument("CartTopology: dims product != ranks");
    geom_ = decomp_.geometry(comm.rank());
    plan_ = decomp_.halo_plan(geom_, cfg.overlap);
    const std::array<int, 3>& own_lo = geom_.own_lo;
    const std::array<int, 3>& local_n = geom_.local_n;

    // Global index of local cell (0, 0, 0).
    const std::array<int, 3> origin{own_lo[0] - halo_, own_lo[1] - halo_,
                                    own_lo[2] - halo_};

    // Both grids start as the local window of the global initial state:
    // the Dirichlet boundary must be present in both (levels alternate
    // grids), and out-of-domain ghost cells are zero-filled, never read.
    // One touch_pages pass writes both, round-robin over the rank's team
    // threads: the placement StencilSolver gives pipelined grids, since
    // every team thread updates every block (Sec. 1.3).
    a_ = core::Grid3(local_n[0], local_n[1], local_n[2]);
    b_ = core::Grid3(local_n[0], local_n[1], local_n[2]);
    topo::touch_pages({a_.data(), b_.data()}, a_.size(), kPlacement,
                      cfg.pipeline.total_threads(),
                      core::window_source(global_initial, a_, origin));

    if constexpr (std::is_same_v<Op, core::VarCoefOp>) {
      if (global_aux == nullptr)
        throw std::invalid_argument(
            "DistributedStencil: the varcoef operator needs the global "
            "kappa field");
      if (global_aux->nx() != global_n_[0] ||
          global_aux->ny() != global_n_[1] ||
          global_aux->nz() != global_n_[2])
        throw std::invalid_argument(
            "DistributedStencil: kappa shape must match the global grid");
      // Rank-local kappa window (zero outside the domain, like a_): the
      // face coefficients of every cell this rank may update — including
      // ghost-layer updates down to depth 1 — depend only on kappa values
      // inside this window.  The rank's team cuts the window and fills
      // the coefficients (bits unchanged).
      core::Grid3 kappa(local_n[0], local_n[1], local_n[2]);
      topo::touch_pages({kappa.data()}, kappa.size(), kPlacement,
                        cfg.pipeline.total_threads(),
                        core::window_source(*global_aux, kappa, origin));
      coeffs_ = std::make_shared<const core::DiffusionCoefficients>(
          kappa, cfg.pipeline.total_threads());
      solver_.emplace(cfg.pipeline, level_clips(), Op{&coeffs_});
    } else if constexpr (StateTraits::kHasStateFields) {
      // State-fields contract (core/stencil_op.hpp): the operator cuts a
      // rank-local window of its side channel from the global inputs —
      // for lbm, geometry at the rank window and distributions at the
      // equilibrium of the local density window (a_), the same bits a
      // global construction holds at the matching coordinates.  Windows
      // may reject missing/ill-shaped aux grids; the throw is identical
      // on every rank (it depends only on global inputs), so no rank can
      // be left behind in the exchange.
      core::StateWindowSpec spec;
      spec.global_n = global_n_;
      spec.local_n = local_n;
      spec.origin = origin;
      state_.emplace(spec, a_, global_aux, state_params());
      solver_.emplace(cfg.pipeline, level_clips(), state_->op());
    } else if constexpr (std::is_same_v<Op, core::RedBlackOp>) {
      // The rank-local solver indexes the local window, but the
      // two-color update must color cells by their GLOBAL coordinate
      // sum; hand the op the parity of this rank's window origin.
      // (base levels are already absolute — base_level_ — so the
      // LevelOrigin stays null.)
      core::RedBlackOp op;
      op.parity = ((own_lo[0] + own_lo[1] + own_lo[2] - 3 * halo_) %
                       2 +
                   2) %
                  2;
      solver_.emplace(cfg.pipeline, level_clips(), op);
    } else {
      solver_.emplace(cfg.pipeline, level_clips());
    }
  }

  // solver_ holds a pointer into coeffs_ (varcoef) resp. state_ (lbm).
  DistributedStencil(const DistributedStencil&) = delete;
  DistributedStencil& operator=(const DistributedStencil&) = delete;

  /// Advances the global solution by `epochs` * h time levels.  Collective:
  /// every rank of the world must call it with the same arguments.
  DistStats advance(int epochs) {
    const std::uint64_t bytes0 = comm_.bytes_sent();
    const std::uint64_t msgs0 = comm_.messages_sent();
    const double full = compute_seconds(/*inner_only=*/false);
    const double inner = cfg_.overlap ? compute_seconds(/*inner_only=*/true)
                                      : 0.0;
    for (int e = 0; e < epochs; ++e) {
      obs::Span epoch_span("dist.epoch", "dist");
      // The grids whose ghost layers this epoch's updates read: the
      // base-level carrier plus every state field the operator declares
      // at the base level (the base parity changes with base_level_, so
      // the list is rebuilt per epoch).
      exchange_halos(exchange_grids(), inner);
      comm_.compute(full - inner);
      solver_->run(a_, b_, 1, base_level_);
      base_level_ += halo_;
    }
    DistStats st;
    st.sim_seconds = comm_.sim_time();
    st.comm.bytes = comm_.bytes_sent() - bytes0;
    st.comm.messages = comm_.messages_sent() - msgs0;
    st.levels = epochs * halo_;
    return st;
  }

  /// Collects the owned cells of every rank into `*out` on the root rank
  /// (pass nullptr on all other ranks).  `out` must have the global shape;
  /// its Dirichlet boundary is left untouched.  Collective.
  void gather(core::Grid3* out, int root = 0) {
    obs::ScopedTimer st(
        obs::enabled()
            ? &obs::Registry::global().histogram("dist.gather.seconds")
            : nullptr);
    obs::Span span("dist.gather", "dist");
    std::vector<core::Grid3*> dst;
    if (comm_.rank() == root) {
      if (out == nullptr)
        throw std::invalid_argument("DistributedStencil: root needs a grid");
      if (out->nx() != global_n_[0] || out->ny() != global_n_[1] ||
          out->nz() != global_n_[2])
        throw std::invalid_argument("DistributedStencil: gather shape");
      dst.push_back(out);
    }
    gather_fields({&current()}, dst, kGatherTag, root);
  }

  /// Number of read-write side-channel fields the operator declares
  /// through the state-fields contract (19 for lbm, 0 for carrier-only
  /// operators).
  [[nodiscard]] static constexpr int state_field_count() {
    if constexpr (StateTraits::kHasStateFields)
      return StateTraits::Window::field_count();
    else
      return 0;
  }

  /// Collects the owned cells of every rank's state fields at the current
  /// time level into `*out` on the root rank (pass nullptr elsewhere):
  /// for lbm, the 19 distribution grids of the final level, alongside the
  /// carrier density of gather().  The vector is resized to
  /// state_field_count() grids of the global shape with non-owned
  /// (boundary) cells zero-filled.  Collective; a no-op (clearing root's
  /// vector) for operators without state fields, so drivers may call it
  /// unconditionally.
  void gather_state(std::vector<core::Grid3>* out, int root = 0) {
    if constexpr (!StateTraits::kHasStateFields) {
      if (comm_.rank() == root && out != nullptr) out->clear();
    } else {
      const auto fields = state_->fields(base_level_);
      std::vector<core::Grid3*> dst;
      if (comm_.rank() == root) {
        if (out == nullptr)
          throw std::invalid_argument(
              "DistributedStencil: root needs a field vector");
        out->clear();
        for (std::size_t f = 0; f < fields.size(); ++f) {
          out->emplace_back(global_n_[0], global_n_[1], global_n_[2]);
          out->back().fill(0.0);
        }
        for (core::Grid3& g : *out) dst.push_back(&g);
      }
      gather_fields({fields.begin(), fields.end()}, dst, kStateGatherTag,
                    root);
    }
  }

  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] const std::array<int, 3>& owned_extent() const {
    return geom_.own;
  }

 private:
  using StateTraits = core::StateFieldsTraits<Op>;

  /// Page placement of the rank grids, as StencilSolver::placement()
  /// gives pipelined grids.
  static constexpr topo::PagePlacement kPlacement =
      topo::PagePlacement::kRoundRobin;

  static constexpr int kGatherTag = 64;
  static constexpr int kStateGatherTag = 65;

  /// Collects the owned cells of this rank's grids `src` into the
  /// global-shape grids `dst` on the root (`dst` is empty elsewhere):
  /// every other rank sends one field-major message, and the root
  /// unpacks each rank's owned box in rank order.  The one path behind
  /// gather() and gather_state().
  void gather_fields(const std::vector<core::Grid3*>& src,
                     const std::vector<core::Grid3*>& dst, int tag,
                     int root) {
    const Box3 owned{{halo_, halo_, halo_},
                     {halo_ + geom_.own[0], halo_ + geom_.own[1],
                      halo_ + geom_.own[2]}};
    std::vector<double> buf;
    if (comm_.rank() != root) {
      pack(src, owned, buf);
      comm_.send(root, tag, buf);
      return;
    }
    for (int r = 0; r < comm_.size(); ++r) {
      Box3 global;  // rank r's owned cells in global indices
      for (int d = 0; d < 3; ++d) {
        const auto [first, count] =
            decomp_.owned_range(d, decomp_.topology().coords_of(r)[d]);
        global.lo[d] = first;
        global.hi[d] = first + count;
      }
      if (r == root) {
        pack(src, owned, buf);
      } else {
        buf.resize(global.cells() * src.size());
        comm_.recv(r, tag, buf);
      }
      unpack(dst, global, buf);
    }
  }

  /// Grid holding the current base time level.
  [[nodiscard]] core::Grid3& current() {
    return base_level_ % 2 == 0 ? a_ : b_;
  }

  /// Op-specific window construction parameters from the DistConfig.
  [[nodiscard]] typename StateTraits::Params state_params() const {
    if constexpr (std::is_same_v<Op, lbm::LbmOp>)
      return {cfg_.lbm, cfg_.lbm_geometry_from_aux};
    else
      return {};
  }

  /// Everything the next epoch's ghost exchange must refresh: the
  /// base-level carrier plus the operator's declared state fields at the
  /// base level.  All fields share the carrier's local shape and
  /// indexing, so one slab geometry serves the whole list.
  [[nodiscard]] std::vector<core::Grid3*> exchange_grids() {
    std::vector<core::Grid3*> grids{&current()};
    if constexpr (StateTraits::kHasStateFields)
      for (core::Grid3* f : state_->fields(base_level_)) grids.push_back(f);
    return grids;
  }

  /// Per-level update regions in local coordinates — delegated to
  /// Decomposition so the rank-program builder prices the same regions.
  [[nodiscard]] std::vector<core::LevelClip> level_clips() const {
    return decomp_.level_clips(geom_);
  }

  /// Modeled seconds of one epoch's cell updates (Decomposition counts
  /// the cells; see compute_cells there for the inner_only semantics).
  [[nodiscard]] double compute_seconds(bool inner_only) const {
    return static_cast<double>(decomp_.compute_cells(geom_, inner_only)) /
           cfg_.proc_lups;
  }

  /// One epoch's halo exchange of the base-level grids: walks plan_
  /// phase by phase — pack and send every message of the phase (isend
  /// when overlapped), charge the inner-cell computation between the
  /// sends and the receives when overlapped (where a real overlapped
  /// implementation would perform it), then receive and unpack.  All
  /// exchanged fields of one box travel aggregated in one message, so the
  /// message count is operator-independent and only the bytes scale with
  /// the operator's state width.  The direct plan fills exactly the ghost
  /// cells of the sequential one with the same base-level doubles
  /// (corners travel directly instead of in two hops), so the result is
  /// bit-identical either way.
  void exchange_halos(const std::vector<core::Grid3*>& grids,
                      double inner_seconds) {
    // Per-phase telemetry: exchange time, halo bytes and message counts,
    // aggregated across all ranks (ranks are threads here, the
    // registry's counters are atomic).
    static constexpr const char* kPhaseSpan[3] = {
        "dist.exchange.x", "dist.exchange.y", "dist.exchange.z"};
    static constexpr const char* kPhaseBytes[3] = {
        "dist.halo.bytes.x", "dist.halo.bytes.y", "dist.halo.bytes.z"};
    const bool overlap = cfg_.overlap;
    const bool tel = obs::enabled();
    obs::Registry& reg = obs::Registry::global();
    obs::Histogram* exch_h =
        tel ? &reg.histogram("dist.exchange.seconds") : nullptr;
    obs::Counter* msgs = tel ? &reg.counter("dist.halo.messages") : nullptr;
    std::vector<double> buf;
    for (int phase = 0; phase < halo_phases(overlap); ++phase) {
      obs::ScopedTimer st(exch_h);
      obs::Span span(overlap ? "dist.exchange.overlap" : kPhaseSpan[phase],
                     "dist");
      obs::Counter* bytes =
          tel ? &reg.counter(overlap ? "dist.halo.bytes.overlap"
                                     : kPhaseBytes[phase])
              : nullptr;
      // Sends are buffered/eager, so posting all of them before the
      // first receive never deadlocks.
      for (const HaloMessage& m : plan_) {
        if (m.phase != phase) continue;
        pack(grids, m.send, buf);
        if (overlap)
          comm_.isend(m.peer, m.send_tag, buf);
        else
          comm_.send(m.peer, m.send_tag, buf);
        if (tel) {
          bytes->add(buf.size() * sizeof(double));
          msgs->add(1);
        }
      }
      if (overlap) comm_.compute(inner_seconds);
      for (const HaloMessage& m : plan_) {
        if (m.phase != phase) continue;
        buf.resize(m.recv.cells() * grids.size());
        comm_.recv(m.peer, m.recv_tag, buf);
        unpack(grids, m.recv, buf);
      }
    }
  }

  /// Serializes the box `b` of every grid, field-major (all cells of
  /// grid 0, then grid 1, ...).  unpack() must mirror the order exactly.
  static void pack(const std::vector<core::Grid3*>& grids, const Box3& b,
                   std::vector<double>& buf) {
    buf.resize(b.cells() * grids.size());
    std::size_t p = 0;
    for (const core::Grid3* g : grids)
      for (int k = b.lo[2]; k < b.hi[2]; ++k)
        for (int j = b.lo[1]; j < b.hi[1]; ++j)
          for (int i = b.lo[0]; i < b.hi[0]; ++i) buf[p++] = g->at(i, j, k);
  }

  static void unpack(const std::vector<core::Grid3*>& grids, const Box3& b,
                     const std::vector<double>& buf) {
    std::size_t p = 0;
    for (core::Grid3* g : grids)
      for (int k = b.lo[2]; k < b.hi[2]; ++k)
        for (int j = b.lo[1]; j < b.hi[1]; ++j)
          for (int i = b.lo[0]; i < b.hi[0]; ++i) g->at(i, j, k) = buf[p++];
  }

  simnet::Comm& comm_;
  DistConfig cfg_;
  int halo_;
  std::array<int, 3> global_n_;
  Decomposition decomp_;  ///< shared geometry (also the rank-program source)
  RankGeometry geom_;     ///< this rank's slice of decomp_
  std::vector<HaloMessage> plan_;  ///< one epoch's exchange, walked by advance
  core::Grid3 a_, b_;
  int base_level_ = 0;
  std::shared_ptr<const core::DiffusionCoefficients> coeffs_;  // varcoef only
  /// Rank-local window of the operator's side-channel state (lbm only;
  /// empty struct for operators without state fields).
  std::optional<typename StateTraits::Window> state_;
  std::optional<core::PipelinedSolver<Op>> solver_;
};

/// Historical name: the constant-coefficient instantiation.
using DistributedJacobi = DistributedStencil<core::JacobiOp>;

/// Convenience driver: runs the distributed solver on a fresh World and
/// gathers the final state into `*out` (which must be pre-sized to the
/// global shape and already hold the boundary values, e.g. a clone of the
/// initial grid).  `aux` supplies the global auxiliary field for
/// operators that take one (kappa, required, for VarCoefOp; geometry
/// codes for lbm::LbmOp with lbm_geometry_from_aux; ignored by the
/// rest).
template <class Op = core::JacobiOp>
inline void run_distributed(int ranks, const DistConfig& cfg,
                            const core::Grid3& initial, int epochs,
                            core::Grid3* out,
                            const core::Grid3* aux = nullptr) {
  simnet::World world(ranks);
  world.run([&](simnet::Comm& comm) {
    DistributedStencil<Op> solver(comm, cfg, initial, aux);
    solver.advance(epochs);
    // gather() is collective and internally race-free: only the root rank
    // writes *out, every other rank just sends.
    solver.gather(comm.rank() == 0 ? out : nullptr);
  });
}

}  // namespace tb::dist
