#include "core/solver.hpp"

#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/stencil_op.hpp"
#include "lbm/stencil_op.hpp"
#include "obs/obs.hpp"
#include "topo/placement.hpp"
#include "util/timer.hpp"

namespace tb::core {

namespace {

/// Per-operator construction state.  The generic case is stateless; the
/// variable-coefficient operator holds its face-coefficient set here,
/// the lbm operator its distribution lattices and geometry, so the row
/// kernels can hold a stable pointer to them.  set_level_base() feeds
/// time-dependent operators the absolute level of the phase about to
/// run (see LevelOrigin); it is a no-op for time-invariant operators.
template <class Op>
struct OpState {
  [[nodiscard]] Op make() { return Op{}; }
  void set_level_base(int /*base*/) {}
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  /// Cells one level actually updates, or -1 for "every interior cell"
  /// (the geometry-oblivious operators).
  [[nodiscard]] long long updates_per_level() const { return -1; }
  /// Rewind hook (StencilSolver::reset): stateless operators have
  /// nothing to rebuild.
  void reset(const SolverConfig& /*cfg*/, const Grid3& /*initial*/,
             const Grid3* /*aux*/) {}
};

template <>
struct OpState<VarCoefOp> {
  /// The slot every copy of the operator reads the set through: pointing
  /// it at another set between sweeps rebinds them all.  Other solvers
  /// may hold the same set, so it is never written here.
  std::shared_ptr<const DiffusionCoefficients> coeffs;
  [[nodiscard]] VarCoefOp make() { return VarCoefOp{&coeffs}; }
  void set_level_base(int /*base*/) {}
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  [[nodiscard]] long long updates_per_level() const { return -1; }
  /// New kappa -> a private set built from it replaces the held one,
  /// which is freed unless another solver still holds it; no kappa -> the
  /// material stays (documented at StencilSolver::reset).
  void reset(const SolverConfig& cfg, const Grid3& /*initial*/,
             const Grid3* aux) {
    if (aux != nullptr)
      coeffs = std::make_shared<const DiffusionCoefficients>(
          *aux, cfg.setup_threads());
  }
};

/// Throws unless `c` is a set shaped (nx, ny, nz).
void check_coefficients(const DiffusionCoefficients* c, int nx, int ny,
                        int nz) {
  if (c == nullptr)
    throw std::invalid_argument("StencilSolver: null face-coefficient set");
  if (c->nx() != nx || c->ny() != ny || c->nz() != nz)
    throw std::invalid_argument(
        "StencilSolver: the face-coefficient set must match the grid shape");
}

template <>
struct OpState<RedBlackOp> {
  LevelOrigin origin;
  [[nodiscard]] RedBlackOp make() { return RedBlackOp{&origin}; }
  void set_level_base(int base) { origin.base = base; }
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  [[nodiscard]] long long updates_per_level() const { return -1; }
  void reset(const SolverConfig& /*cfg*/, const Grid3& /*initial*/,
             const Grid3* /*aux*/) {
    origin.base = 0;
  }
};

template <>
struct OpState<lbm::LbmOp> {
  lbm::LbmState state;
  [[nodiscard]] lbm::LbmOp make() { return lbm::LbmOp{&state}; }
  void set_level_base(int base) { state.origin.base = base; }
  [[nodiscard]] const lbm::LbmState* lbm() const { return &state; }
  /// Solid cells only copy the carrier through — MLUP/s counts the
  /// fluid cells that run a real stream-collide update.
  [[nodiscard]] long long updates_per_level() const {
    return state.fluid_interior_cells();
  }
  /// Distributions back to the equilibrium of the new initial density,
  /// geometry rebuilt from the aux codes when the config sources it
  /// there — all in the existing lattice allocations.
  void reset(const SolverConfig& cfg, const Grid3& initial,
             const Grid3* aux) {
    state.origin.base = 0;
    if (cfg.lbm_geometry_from_aux && aux != nullptr) {
      const lbm::Geometry geo = lbm::geometry_from_codes(*aux);
      state.reset(initial, &geo);
    } else {
      state.reset(initial, nullptr);
    }
  }
};

}  // namespace

struct StencilSolver::Impl {
  virtual ~Impl() = default;
  /// Advances by `steps` levels; `base` is the absolute level count
  /// already completed (the facade's levels_done_ — the single counter;
  /// it feeds the LevelOrigin of time-dependent operators).
  virtual RunStats advance(int steps, int base) = 0;
  /// Rewinds to level 0 with new initial data (and optionally a new aux
  /// field); see StencilSolver::reset.
  virtual void reset(const Grid3& initial, const Grid3* aux) = 0;
  /// Points a varcoef solver at another face-coefficient set; throws for
  /// every other operator.  See StencilSolver::reset.
  virtual void bind(std::shared_ptr<const DiffusionCoefficients> coeffs) = 0;
  [[nodiscard]] virtual const DiffusionCoefficients* coefficients() const = 0;
  /// The current level as a grid.  Not const: a compressed solver copies
  /// its store out on demand (see StencilSolver::solution).
  [[nodiscard]] virtual const Grid3& solution() = 0;
  [[nodiscard]] virtual const double* row(int j, int k) const = 0;
  [[nodiscard]] virtual const lbm::LbmState* lbm_state() const = 0;
};

/// The whole advance state machine, instantiated per operator.  Only the
/// facade-level dispatch is virtual; the hot loops live in the templated
/// scheme classes and stay inlined.
///
/// Two-grid variants keep the current level in a_ and the other parity
/// in b_.  A compressed solver's state is its store: a_ exists only
/// once solution() or a baseline remainder phase has asked for it, b_
/// only once a remainder phase has run, and the two flags below say
/// which of store and a_ hold the current level.
template <class Op>
struct StencilSolver::OpImpl final : StencilSolver::Impl {
  OpImpl(const SolverConfig& cfg, const Grid3& initial, OpState<Op> state)
      : cfg_(cfg),
        state_(std::move(state)),
        nx_(initial.nx()),
        ny_(initial.ny()),
        nz_(initial.nz()) {
    const Op op = state_.make();
    switch (cfg.variant) {
      case Variant::kReference:
        break;
      case Variant::kBaseline:
        baseline_ = std::make_unique<BaselineSolver<Op>>(cfg.baseline, nx_,
                                                         ny_, nz_, op);
        break;
      case Variant::kPipelined:
      case Variant::kWavefront: {
        PipelineConfig pipe = cfg.pipeline;
        if (cfg.variant == Variant::kWavefront) {
          // The wavefront is the pipeline whose block is a whole plane.
          cfg.wavefront.validate();
          pipe = cfg.wavefront.pipeline(nx_, ny_);
        }
        pipe.validate();
        if (pipe.scheme == GridScheme::kTwoGrid) {
          pipelined_ =
              std::make_unique<PipelinedSolver<Op>>(pipe, nx_, ny_, nz_, op);
        } else {
          compressed_ =
              std::make_unique<CompressedSolver<Op>>(pipe, nx_, ny_, nz_, op);
        }
        // Remainder steps (not a multiple of the sweep depth) run as
        // baseline sweeps.
        BaselineConfig rem = cfg.baseline;
        rem.threads = pipe.total_threads();
        baseline_ = std::make_unique<BaselineSolver<Op>>(rem, nx_, ny_, nz_,
                                                         op);
        break;
      }
    }
    if (!compressed_) {
      a_ = Grid3(nx_, ny_, nz_);
      b_ = Grid3(nx_, ny_, nz_);
    }
    write_initial(initial);
  }

  RunStats advance(int steps, int base) override {
    RunStats total;
    if (steps == 0) return total;

    switch (cfg_.variant) {
      case Variant::kReference: {
        state_.set_level_base(base);
        const Op op = state_.make();
        util::Timer timer;
        for (int s = 0; s < steps; ++s) {
          reference_sweep_op(op, a_, b_, s + 1);
          std::swap(a_, b_);
        }
        total.seconds = timer.elapsed();
        total.levels = steps;
        total.cell_updates =
            1LL * (nx_ - 2) * (ny_ - 2) * (nz_ - 2) * steps;
        break;
      }
      case Variant::kBaseline:
        total = advance_baseline_steps(steps, base);
        break;
      case Variant::kPipelined:
      case Variant::kWavefront: {
        const int depth = cfg_.sweep_depth();
        const int sweeps = steps / depth;
        const int remainder = steps % depth;
        if (sweeps > 0)
          accumulate(total, advance_blocked_sweeps(sweeps, base));
        if (remainder > 0)
          accumulate(total, advance_baseline_steps(
                                remainder, base + sweeps * depth));
        break;
      }
    }
    // Geometry-aware operators report the updates they actually perform
    // (the schemes themselves count every interior cell).
    const long long upl = state_.updates_per_level();
    if (upl >= 0) total.cell_updates = upl * total.levels;
    return total;
  }

  void reset(const Grid3& initial, const Grid3* aux) override {
    if (initial.nx() != nx_ || initial.ny() != ny_ || initial.nz() != nz_)
      throw std::invalid_argument(
          "StencilSolver::reset: the new initial grid must match the "
          "constructed shape");
    if (aux != nullptr &&
        (aux->nx() != nx_ || aux->ny() != ny_ || aux->nz() != nz_))
      throw std::invalid_argument(
          "StencilSolver::reset: the new aux grid must match the "
          "constructed shape");
    state_.reset(cfg_, initial, aux);
    write_initial(initial);
  }

  void bind(std::shared_ptr<const DiffusionCoefficients> coeffs) override {
    if constexpr (std::is_same_v<Op, VarCoefOp>) {
      check_coefficients(coeffs.get(), nx_, ny_, nz_);
      state_.coeffs = std::move(coeffs);
    } else {
      throw std::invalid_argument(
          "StencilSolver::reset: only the varcoef operator reads face "
          "coefficients");
    }
  }

  [[nodiscard]] const DiffusionCoefficients* coefficients() const override {
    if constexpr (std::is_same_v<Op, VarCoefOp>) return state_.coeffs.get();
    return nullptr;
  }

  /// Every two-grid path swaps the grids back when it ends on an odd
  /// parity, so the current level lives in a_; a compressed solver
  /// copies its store there first when a_ is stale.
  [[nodiscard]] const Grid3& solution() override {
    materialize();
    return a_;
  }

  [[nodiscard]] const double* row(int j, int k) const override {
    return store_current_ ? compressed_->row(j, k) : a_.row(j, k);
  }

  [[nodiscard]] const lbm::LbmState* lbm_state() const override {
    return state_.lbm();
  }

 private:
  /// Threads of the configured schedule: the set-up passes run on as
  /// many.
  [[nodiscard]] int threads() const {
    return cfg_.variant == Variant::kPipelined ? cfg_.pipeline.total_threads()
           : cfg_.variant == Variant::kWavefront ? cfg_.wavefront.threads
                                                 : cfg_.baseline.threads;
  }

  /// Page placement of the set-up passes: the temporally blocked
  /// variants defeat first-touch locality (every thread sweeps through
  /// every block or plane), so they interleave round-robin, while the
  /// baseline keeps classic first-touch (Sec. 1.3).
  [[nodiscard]] topo::PagePlacement placement() const {
    const bool spread = cfg_.variant == Variant::kPipelined ||
                        cfg_.variant == Variant::kWavefront;
    return spread ? topo::PagePlacement::kRoundRobin
                  : topo::PagePlacement::kFirstTouch;
  }

  /// Two-grid variants: writes `initial` into both parities — the
  /// boundary values must exist in both — in one parallel pass.  At
  /// construction that pass is the pages' first touch; on reset the
  /// pages are mapped already and keep that placement.  Row padding
  /// ends up zero.  A compressed solver loads `initial` into its store
  /// (zeroed under the same placement at construction), which then
  /// holds the only current copy.  Its b_, once a remainder phase has
  /// allocated it, takes the new boundary values too: the next
  /// remainder phase reads them there.
  void write_initial(const Grid3& initial) {
    if (!compressed_) {
      topo::touch_pages({a_.data(), b_.data()}, a_.size(), placement(),
                        threads(), window_source(initial, a_));
      return;
    }
    compressed_->load(initial);
    store_current_ = true;
    grid_current_ = false;
    if (b_.size() != 0)
      topo::touch_pages({b_.data()}, b_.size(), placement(), threads(),
                        window_source(initial, b_));
  }

  /// Compressed only: copies the store's current level into a_ when a_
  /// is stale, allocating a_ on first use (first touch under the
  /// solver's placement, zero padding).
  void materialize() {
    if (grid_current_) return;
    if (a_.size() == 0) {
      a_ = Grid3(nx_, ny_, nz_);
      topo::touch_pages({a_.data()}, a_.size(), placement(), threads());
    }
    compressed_->store(a_);
    grid_current_ = true;
  }

  /// Compressed only: a remainder phase runs the baseline on a_ and b_.
  /// b_ is allocated at the first one and copies a_ whole, boundary
  /// values included.
  void prepare_remainder() {
    materialize();
    if (b_.size() != 0) return;
    b_ = Grid3(nx_, ny_, nz_);
    topo::touch_pages({b_.data()}, b_.size(), placement(), threads(),
                      window_source(a_, b_));
  }

  static void accumulate(RunStats& total, const RunStats& st) {
    total.seconds += st.seconds;
    total.cell_updates += st.cell_updates;
    total.levels += st.levels;
  }

  /// `base` is the absolute level count completed before this phase:
  /// the schemes run with run-local levels (the facade re-normalizes
  /// the carrier parity so the current level always sits in a_), and
  /// the LevelOrigin turns them back into absolute levels for
  /// time-dependent operators.
  RunStats advance_baseline_steps(int steps, int base) {
    if (compressed_) {
      prepare_remainder();
      store_current_ = false;
    }
    state_.set_level_base(base);
    RunStats st = baseline_->run(a_, b_, steps, 0);
    if (steps % 2 != 0) std::swap(a_, b_);
    return st;
  }

  /// Whole team sweeps of the configured temporally blocked scheme.  The
  /// compressed store continues from the level it holds; only after a
  /// remainder phase does it reload a_.
  RunStats advance_blocked_sweeps(int sweeps, int base) {
    state_.set_level_base(base);
    if (compressed_) {
      if (!store_current_) compressed_->load(a_);
      store_current_ = true;
      grid_current_ = false;
      return compressed_->run(sweeps);
    }
    RunStats st = pipelined_->run(a_, b_, sweeps, 0);
    if ((sweeps * cfg_.sweep_depth()) % 2 != 0) std::swap(a_, b_);
    return st;
  }

  SolverConfig cfg_;
  OpState<Op> state_;
  int nx_, ny_, nz_;
  Grid3 a_, b_;
  bool store_current_ = false;  ///< compressed: the store holds the level
  bool grid_current_ = true;    ///< a_ holds the current level

  std::unique_ptr<BaselineSolver<Op>> baseline_;
  std::unique_ptr<PipelinedSolver<Op>> pipelined_;
  std::unique_ptr<CompressedSolver<Op>> compressed_;
};

namespace {

/// The default lbm geometry when no auxiliary field is supplied: the
/// lid-driven cavity of the grid's shape.
lbm::LbmState default_lbm_state(const SolverConfig& cfg,
                                const Grid3& initial) {
  lbm::LbmState s(
      lbm::Geometry::cavity(initial.nx(), initial.ny(), initial.nz()),
      cfg.lbm, initial, cfg.lbm_storage, cfg.setup_threads());
  s.prefetch = cfg.lbm_prefetch;
  return s;
}

}  // namespace

StencilSolver::StencilSolver(const SolverConfig& cfg, const Grid3& initial)
    : cfg_(cfg) {
  if (cfg.telemetry) obs::set_enabled(true);
  switch (cfg.op) {
    case Operator::kJacobi:
      impl_ = std::make_unique<OpImpl<JacobiOp>>(cfg, initial,
                                                 OpState<JacobiOp>{});
      return;
    case Operator::kBox27:
      impl_ = std::make_unique<OpImpl<Box27Op>>(cfg, initial,
                                                OpState<Box27Op>{});
      return;
    case Operator::kRedBlack:
      impl_ = std::make_unique<OpImpl<RedBlackOp>>(cfg, initial,
                                                   OpState<RedBlackOp>{});
      return;
    case Operator::kLbm:
      if (cfg.lbm_geometry_from_aux)
        throw std::invalid_argument(
            "StencilSolver: lbm_geometry_from_aux needs the geometry-code "
            "grid — use the (config, initial, kappa) constructor");
      impl_ = std::make_unique<OpImpl<lbm::LbmOp>>(
          cfg, initial, OpState<lbm::LbmOp>{default_lbm_state(cfg, initial)});
      return;
    case Operator::kVarCoef:
      throw std::invalid_argument(
          "StencilSolver: the varcoef operator needs a kappa field — use "
          "the (config, initial, kappa) constructor");
  }
  throw std::invalid_argument("StencilSolver: unknown operator");
}

StencilSolver::StencilSolver(const SolverConfig& cfg, const Grid3& initial,
                             const Grid3& kappa)
    : cfg_(cfg) {
  if (cfg.telemetry) obs::set_enabled(true);
  if (cfg.op == Operator::kJacobi || cfg.op == Operator::kBox27 ||
      cfg.op == Operator::kRedBlack ||
      (cfg.op == Operator::kLbm && !cfg.lbm_geometry_from_aux)) {
    // Stateless operators (and lbm with its default cavity geometry)
    // ignore the auxiliary field.
    *this = StencilSolver(cfg, initial);
    return;
  }
  if (kappa.nx() != initial.nx() || kappa.ny() != initial.ny() ||
      kappa.nz() != initial.nz())
    throw std::invalid_argument(
        "StencilSolver: kappa shape must match the initial grid");
  if (cfg.op == Operator::kLbm) {
    lbm::LbmState s(lbm::geometry_from_codes(kappa), cfg.lbm, initial,
                    cfg.lbm_storage, cfg.setup_threads());
    s.prefetch = cfg.lbm_prefetch;
    impl_ = std::make_unique<OpImpl<lbm::LbmOp>>(
        cfg, initial, OpState<lbm::LbmOp>{std::move(s)});
    return;
  }
  *this = StencilSolver(cfg, initial,
                        std::make_shared<const DiffusionCoefficients>(
                            kappa, cfg.setup_threads()));
}

StencilSolver::StencilSolver(
    const SolverConfig& cfg, const Grid3& initial,
    std::shared_ptr<const DiffusionCoefficients> coeffs)
    : cfg_(cfg) {
  if (cfg.telemetry) obs::set_enabled(true);
  if (cfg.op != Operator::kVarCoef)
    throw std::invalid_argument(
        "StencilSolver: only the varcoef operator reads face coefficients");
  check_coefficients(coeffs.get(), initial.nx(), initial.ny(), initial.nz());
  impl_ = std::make_unique<OpImpl<VarCoefOp>>(
      cfg, initial, OpState<VarCoefOp>{std::move(coeffs)});
}

StencilSolver::~StencilSolver() = default;
StencilSolver::StencilSolver(StencilSolver&&) noexcept = default;
StencilSolver& StencilSolver::operator=(StencilSolver&&) noexcept = default;

void StencilSolver::reset(const Grid3& initial) {
  impl_->reset(initial, nullptr);
  levels_done_ = 0;
}

void StencilSolver::reset(const Grid3& initial, const Grid3& kappa) {
  impl_->reset(initial, &kappa);
  levels_done_ = 0;
}

void StencilSolver::reset(const Grid3& initial,
                          std::shared_ptr<const DiffusionCoefficients> coeffs) {
  impl_->bind(std::move(coeffs));
  reset(initial);
}

const DiffusionCoefficients* StencilSolver::coefficients() const {
  return impl_->coefficients();
}

RunStats StencilSolver::advance(int steps) {
  if (steps < 0) throw std::invalid_argument("advance: negative steps");
  const RunStats st = impl_->advance(steps, levels_done_);
  levels_done_ += steps;
  return st;
}

const Grid3& StencilSolver::solution() const { return impl_->solution(); }

const double* StencilSolver::row(int j, int k) const {
  return impl_->row(j, k);
}

const lbm::LbmState* StencilSolver::lbm_state() const {
  return impl_->lbm_state();
}

}  // namespace tb::core
