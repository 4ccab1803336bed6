// High-level facade: solve a 3-D stencil problem with any variant and
// any operator.
//
// StencilSolver hides the grid bookkeeping (parities, compressed margins,
// remainder steps that are not a multiple of the team-sweep depth) behind
// a single run-to-N-steps call, which is what the examples and the
// distributed solver build on.  A two-grid solver holds the grid pair; a
// compressed one holds only its (n+S)^3 store, which stays resident
// across advance() calls and is copied out to a grid only on request.
// Two orthogonal axes select the algorithm:
//
//   Variant  — how the sweeps are scheduled (reference, baseline,
//              pipelined [two-grid or compressed], wavefront [the
//              two-grid pipeline with one-plane blocks])
//   Operator — what one cell update computes (constant-coefficient
//              Jacobi, variable-coefficient diffusion)
//
// Every (variant x operator) combination is constructible — also by
// string name through core/registry.hpp — and is bit-identical to the
// naive reference of the same operator.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "core/baseline.hpp"
#include "core/compressed.hpp"
#include "core/pipeline.hpp"
#include "lbm/kernel.hpp"  // LbmConfig (physics parameters of --operator lbm)

namespace tb::lbm {
class LbmState;  // side-channel state of the lbm operator
}

namespace tb::core {

class DiffusionCoefficients;  // varcoef's face coefficients (stencil_op.hpp)

/// Which scheduling variant to run.
enum class Variant {
  kReference,  ///< naive single-threaded sweeps (oracle)
  kBaseline,   ///< standard spatially blocked multi-threaded sweeps
  kPipelined,  ///< pipelined temporal blocking (two-grid or compressed)
  kWavefront,  ///< plane-wavefront temporal blocking (Ref. [2]), run as
               ///< the pipelined preset WavefrontConfig::pipeline()
};

/// Which stencil operator each cell update applies.
enum class Operator {
  kJacobi,    ///< constant-coefficient 7-point Jacobi (Eq. (1))
  kVarCoef,   ///< variable-coefficient (heterogeneous) diffusion
  kBox27,     ///< 27-point trilinear box smoother (full 3^3 neighborhood)
  kRedBlack,  ///< two-color Gauss–Seidel-style relaxation
  kLbm,       ///< D3Q19 lattice-Boltzmann stream-collide (lid-driven flow)
};

[[nodiscard]] constexpr const char* to_string(Variant v) {
  switch (v) {
    case Variant::kReference: return "reference";
    case Variant::kBaseline: return "baseline";
    case Variant::kPipelined: return "pipelined";
    case Variant::kWavefront: return "wavefront";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Operator op) {
  switch (op) {
    case Operator::kJacobi: return "jacobi";
    case Operator::kVarCoef: return "varcoef";
    case Operator::kBox27: return "box27";
    case Operator::kRedBlack: return "redblack";
    case Operator::kLbm: return "lbm";
  }
  return "?";
}

/// Facade configuration: variant and operator selectors plus the
/// per-variant tunables.
struct SolverConfig {
  Variant variant = Variant::kPipelined;
  Operator op = Operator::kJacobi;
  PipelineConfig pipeline{};
  BaselineConfig baseline{};
  WavefrontConfig wavefront{};

  /// Physics parameters of Operator::kLbm (ignored by all others).
  lbm::LbmConfig lbm{};

  /// Distribution storage policy of Operator::kLbm: the two-lattice
  /// ping-pong (default) or the in-place AA pattern ("lbm:aa" in the
  /// registry), which halves lattice bytes per update.  AA requires a
  /// fully solid outer layer (the default cavity qualifies) and is
  /// shared-memory only.
  lbm::LbmStorage lbm_storage = lbm::LbmStorage::kTwoLattice;

  /// Geometry of Operator::kLbm.  Default: the lid-driven cavity (closed
  /// box, moving top lid) derived from the grid shape — no auxiliary
  /// field needed, so `--operator lbm` works wherever jacobi does.  When
  /// set, the kappa/auxiliary grid of the (config, initial, kappa)
  /// constructor is instead decoded as per-cell geometry codes
  /// (0 = fluid, 1 = wall, 2 = lid; see lbm::geometry_from_codes), the
  /// lbm analogue of varcoef's material field.
  bool lbm_geometry_from_aux = false;

  /// Software-prefetch distance (cells ahead) for the lbm row kernel's
  /// 19 pull streams; 0 disables.  A tuner axis: the D3Q19 gather runs
  /// more concurrent read streams than the hardware prefetcher tracks,
  /// so the model (NodeModel::gather_efficiency) charges the un-prefetched
  /// kernel a gather penalty and the search space fans the distance.
  /// Ignored by every other operator.  Never changes results.
  int lbm_prefetch = 0;

  /// Requested *meta* variant (e.g. "auto", resolved to a concrete
  /// variant by a factory registered through core/registry.hpp).  Empty
  /// for concrete variants; when set, `variant`/`pipeline` hold the
  /// defaults the resolver starts from, and registry::make_solver routes
  /// construction through the registered factory.
  std::string meta;

  /// Tuning-cache file the "auto" meta variant should read and persist
  /// plans through; empty = the tuner's default (TB_TUNE_CACHE env, else
  /// its built-in path).  Set by the session layer so every auto solve
  /// of a session shares one cache — repeat shapes replay the cached
  /// plan with zero probes.  Ignored by concrete variants; never part of
  /// a tuned schedule (tune::Candidate::apply does not touch it).
  std::string tune_cache_path;

  /// Turns the observability layer (src/obs/) on for this process:
  /// per-sweep/barrier/halo metrics and trace spans from every solver
  /// this config constructs.  Equivalent to the TB_TELEMETRY env (which
  /// also controls the trace output paths and always wins); when both
  /// are unset the instrumentation compiles down to one predictable
  /// branch per sweep.  Never changes results.
  bool telemetry = false;

  /// Threads of the set-up passes that follow no scheme's page placement
  /// (the varcoef face coefficients, the lbm masks and lattices): the
  /// most any scheme of the config runs.
  [[nodiscard]] int setup_threads() const {
    return std::max({baseline.threads, pipeline.total_threads(),
                     wavefront.threads});
  }

  /// Time levels one sweep of the schedule retires: the team-sweep depth
  /// n*t*T for pipelined, the wavefront depth for wavefront, 1 for the
  /// untiled schedules.  The model amortizes memory traffic over it, and
  /// StencilSolver runs step counts that are not a multiple of it as
  /// whole sweeps plus baseline remainder steps.
  [[nodiscard]] int sweep_depth() const {
    switch (variant) {
      case Variant::kPipelined: return pipeline.levels_per_sweep();
      case Variant::kWavefront: return wavefront.threads;
      default: return 1;
    }
  }
};

/// Owns the working grids and advances them by arbitrary step counts.
class StencilSolver {
 public:
  /// `initial` supplies level-0 data including Dirichlet boundary faces
  /// (for Operator::kLbm: the initial density field).  Not valid for
  /// operators that need an auxiliary field (varcoef's material field,
  /// lbm with lbm_geometry_from_aux set).
  StencilSolver(const SolverConfig& cfg, const Grid3& initial);

  /// Construction with an auxiliary per-cell field `kappa` (same shape
  /// as `initial`): the material field for Operator::kVarCoef, the
  /// geometry codes for Operator::kLbm when cfg.lbm_geometry_from_aux is
  /// set.  Valid for any operator; the stateless ones ignore kappa.  A
  /// varcoef solver builds its own face-coefficient set from kappa and
  /// delegates to the constructor below.
  StencilSolver(const SolverConfig& cfg, const Grid3& initial,
                const Grid3& kappa);

  /// Construction on a face-coefficient set (Operator::kVarCoef only;
  /// the set must match the shape of `initial`).  The solver reads the
  /// set and never writes it, so any number of solvers can share one:
  /// core::SolverSession builds one set per material and hands it to
  /// every pooled solver of that shape and material.
  StencilSolver(const SolverConfig& cfg, const Grid3& initial,
                std::shared_ptr<const DiffusionCoefficients> coeffs);

  ~StencilSolver();
  StencilSolver(StencilSolver&&) noexcept;
  StencilSolver& operator=(StencilSolver&&) noexcept;

  /// Advances the solution by `steps` time levels and returns timing.
  /// For the temporally blocked variants, whole team sweeps are used for
  /// floor(steps / depth) * depth levels and the remainder falls back to
  /// baseline sweeps (a real code must produce exactly the requested
  /// number of levels, not a convenient multiple).
  RunStats advance(int steps);

  /// Rewinds the solver to level 0 with new initial data, reusing every
  /// allocation: grids, the operator's side-channel state (lattices,
  /// face coefficients) and the scheme objects with their thread pools
  /// all survive in place — the mechanism behind core::SolverSession's
  /// solver pool.  `initial` must match the constructed shape (throws
  /// std::invalid_argument otherwise).  Results are bit-identical to a
  /// freshly constructed solver on the same inputs.  Page placement is
  /// NOT re-established (the pages are already mapped from the first
  /// construction) — a correctness no-op, and exactly the point: reuse
  /// keeps the NUMA homing the first solve paid for.
  void reset(const Grid3& initial);

  /// reset() with a new auxiliary field (varcoef's kappa, lbm's geometry
  /// codes when cfg.lbm_geometry_from_aux is set).  lbm rebuilds its
  /// geometry masks in place.  A varcoef solver never writes its
  /// face-coefficient set, since other solvers may share it: it builds a
  /// private set from kappa, and the old one is freed unless another
  /// solver still holds it.  Operators that take no aux field ignore
  /// `kappa`, mirroring the two-argument constructor.
  void reset(const Grid3& initial, const Grid3& kappa);

  /// reset() onto another face-coefficient set (varcoef only; throws
  /// std::invalid_argument for other operators or a set of another
  /// shape): the solver drops the set it held and computes no
  /// coefficient.  Passing the set it already holds is reset(initial).
  void reset(const Grid3& initial,
             std::shared_ptr<const DiffusionCoefficients> coeffs);

  /// Read-only view of the current solution, valid until the next
  /// advance() or reset().  Two-grid variants return their primary grid
  /// (parity swaps after odd step counts keep the current level there),
  /// no copy.  A compressed solver copies its store into a grid the
  /// first time solution() is called after an advance, allocating that
  /// grid on first use: this const accessor writes solver state, so it
  /// must not race with any other call on the same solver.  Readers
  /// that only need the values should use row().
  [[nodiscard]] const Grid3& solution() const;

  /// Row (j, k) of the current level, read in place: element i is cell
  /// (i, j, k) for i in [0, nx).  The primary grid's row for the
  /// two-grid variants, the store's row at its current margin for a
  /// compressed solver.  Never copies or allocates; valid until the next
  /// advance() or reset().
  [[nodiscard]] const double* row(int j, int k) const;

  [[nodiscard]] int levels_done() const { return levels_done_; }
  [[nodiscard]] const SolverConfig& config() const { return cfg_; }

  /// Side-channel state of the lbm operator (distributions + geometry),
  /// for flow diagnostics beyond the density carrier:
  /// `lbm_state()->current(levels_done())` is the lattice holding the
  /// present time level.  nullptr for every other operator.
  [[nodiscard]] const lbm::LbmState* lbm_state() const;

  /// The face-coefficient set a varcoef solver reads; nullptr for every
  /// other operator.
  [[nodiscard]] const DiffusionCoefficients* coefficients() const;

 private:
  struct Impl;
  template <class Op>
  struct OpImpl;

  SolverConfig cfg_;
  int levels_done_ = 0;
  std::unique_ptr<Impl> impl_;
};

/// Historical name of the facade, kept for the examples and tests that
/// predate the operator axis.
using JacobiSolver = StencilSolver;

}  // namespace tb::core
