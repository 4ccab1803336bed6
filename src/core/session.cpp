#include "core/session.hpp"

#include <atomic>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/stencil_op.hpp"
#include "obs/registry.hpp"
#include "topo/placement.hpp"
#include "util/slices.hpp"

namespace tb::core {

namespace {

/// True when `a` and `b` have one shape and every cell the same bits;
/// z-slices are compared on `threads` threads.
bool same_cells(const Grid3& a, const Grid3& b, int threads) {
  if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz()) return false;
  const std::size_t row_bytes = sizeof(double) * a.nx();
  std::atomic<bool> differ{false};
  util::for_each_slice(threads, 0, a.nz(), [&](int, int k0, int k1) {
    for (int k = k0; k < k1 && !differ; ++k)
      for (int j = 0; j < a.ny(); ++j)
        if (std::memcmp(a.row(j, k), b.row(j, k), row_bytes) != 0) {
          differ = true;
          return;
        }
  });
  return !differ;
}

/// One material: a face-coefficient set and the kappa bits it was built
/// from.
struct Material {
  Grid3 kappa;
  std::shared_ptr<DiffusionCoefficients> coeffs;
};

}  // namespace

struct SolverSession::Impl {
  SessionOptions opts;
  // Keyed by fingerprint(); std::map keeps iteration deterministic and
  // pointers stable (SolveResult::solver survives later insertions).
  std::map<std::string, std::unique_ptr<StencilSolver>> pool;
  // The sets pooled varcoef solvers read, one per (shape, kappa bits).
  // Each is held here and by every solver bound to it.
  std::vector<Material> materials;
  std::uint64_t created = 0;
  std::uint64_t reused = 0;

  /// The set for material `kappa`, for a solver that reads `held` now
  /// (nullptr for a solver not built yet).  A material already held
  /// shares its set.  Otherwise `held` is refilled in place when only
  /// this session and that solver hold it, else a new set is built.  So
  /// no set is written while another solver reads it.
  std::shared_ptr<const DiffusionCoefficients> material(
      const Grid3& kappa, const DiffusionCoefficients* held, int threads) {
    Material* own = nullptr;
    for (Material& m : materials) {
      if (same_cells(m.kappa, kappa, threads)) return m.coeffs;
      if (m.coeffs.get() == held) own = &m;
    }
    if (own != nullptr && own->coeffs.use_count() == 2) {
      own->coeffs->rebuild(kappa);
    } else {
      own = &materials.emplace_back(
          Material{Grid3(kappa.nx(), kappa.ny(), kappa.nz()),
                   std::make_shared<DiffusionCoefficients>(kappa, threads)});
    }
    topo::touch_pages({own->kappa.data()}, own->kappa.size(),
                      topo::PagePlacement::kFirstTouch, threads,
                      window_source(kappa, own->kappa));
    return own->coeffs;
  }
};

SolverSession::SolverSession(SessionOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
}

SolverSession::~SolverSession() = default;
SolverSession::SolverSession(SolverSession&&) noexcept = default;
SolverSession& SolverSession::operator=(SolverSession&&) noexcept = default;

std::string SolverSession::fingerprint(const SolveRequest& req) {
  if (req.initial == nullptr)
    throw std::invalid_argument(
        "SolverSession: SolveRequest.initial must not be null");
  const SolverConfig& c = req.cfg;
  std::ostringstream os;
  // Doubles print with enough digits to round-trip: two requests that
  // differ only in the last bit of omega must not share a pooled solver.
  os.precision(17);
  // Everything that decides allocation or results — and nothing that
  // doesn't (grid contents are replayed through reset, steps through
  // advance).
  os << req.initial->nx() << 'x' << req.initial->ny() << 'x'
     << req.initial->nz() << '|' << req.variant << '|' << req.op << '|'
     << (req.aux != nullptr) << '|';
  const PipelineConfig& p = c.pipeline;
  os << p.teams << ',' << p.team_size << ',' << p.steps_per_thread << ','
     << p.block.bx << ',' << p.block.by << ',' << p.block.bz << ',' << p.dl
     << ',' << p.du << ',' << p.dt << ',' << static_cast<int>(p.sync) << ','
     << static_cast<int>(p.scheme) << '|';
  const BaselineConfig& b = c.baseline;
  os << b.threads << ',' << b.block.bx << ',' << b.block.by << ','
     << b.block.bz << ',' << b.nontemporal << '|';
  os << c.wavefront.threads << '|';
  os << c.lbm.omega << ',' << c.lbm.rho0 << ',' << c.lbm.lid_velocity[0]
     << ',' << c.lbm.lid_velocity[1] << ',' << c.lbm.lid_velocity[2] << ','
     << static_cast<int>(c.lbm_storage) << ',' << c.lbm_geometry_from_aux
     << ',' << c.lbm_prefetch;
  return os.str();
}

SolveResult SolverSession::solve(const SolveRequest& req) {
  const std::string key = fingerprint(req);
  obs::Registry& reg = obs::Registry::global();

  SolverConfig cfg = req.cfg;
  // A varcoef solver reads its material from the session's sets.
  const bool varcoef = req.aux != nullptr && apply_operator(cfg, req.op) &&
                       cfg.op == Operator::kVarCoef;
  if (varcoef && (req.aux->nx() != req.initial->nx() ||
                  req.aux->ny() != req.initial->ny() ||
                  req.aux->nz() != req.initial->nz()))
    throw std::invalid_argument(
        "SolverSession: kappa shape must match the initial grid");
  const int threads = cfg.setup_threads();

  SolveResult out;
  const auto it = impl_->pool.find(key);
  if (it != impl_->pool.end()) {
    // Pool hit: rewind in place.  For the "auto" meta variant this is
    // where the zero-probe guarantee comes from — the solver already
    // carries its resolved plan, so no plan() call happens at all.
    StencilSolver& s = *it->second;
    if (varcoef) {
      s.reset(*req.initial,
              impl_->material(*req.aux, s.coefficients(), threads));
      // Drop the set s left if no other solver reads it.
      std::erase_if(impl_->materials, [](const Material& m) {
        return m.coeffs.use_count() == 1;
      });
    } else if (req.aux != nullptr) {
      s.reset(*req.initial, *req.aux);
    } else {
      s.reset(*req.initial);
    }
    out.stats = s.advance(req.steps);
    out.solver = &s;
    out.reused = true;
    ++impl_->reused;
    reg.counter("session.solver.reuse").add(1);
    return out;
  }

  if (impl_->opts.telemetry) cfg.telemetry = true;
  if (!impl_->opts.tune_cache_path.empty())
    cfg.tune_cache_path = impl_->opts.tune_cache_path;
  std::unique_ptr<StencilSolver> solver;
  if (varcoef && apply_variant(cfg, req.variant) && cfg.meta.empty()) {
    solver = std::make_unique<StencilSolver>(
        cfg, *req.initial, impl_->material(*req.aux, nullptr, threads));
  } else {
    // Meta variants resolve through make_solver, which builds a private
    // set for varcoef; the shared one replaces it before the first step.
    solver = std::make_unique<StencilSolver>(make_solver(
        req.variant, req.op, std::move(cfg), *req.initial, req.aux));
    if (varcoef)
      solver->reset(*req.initial,
                    impl_->material(*req.aux, nullptr, threads));
  }
  out.stats = solver->advance(req.steps);
  ++impl_->created;
  reg.counter("session.solver.create").add(1);

  StencilSolver* raw = solver.get();
  impl_->pool.emplace(key, std::move(solver));
  out.solver = raw;
  out.reused = false;
  return out;
}

std::size_t SolverSession::pool_size() const { return impl_->pool.size(); }
std::uint64_t SolverSession::solvers_created() const {
  return impl_->created;
}
std::uint64_t SolverSession::solvers_reused() const { return impl_->reused; }
const SessionOptions& SolverSession::options() const { return impl_->opts; }

}  // namespace tb::core
