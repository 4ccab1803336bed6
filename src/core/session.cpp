#include "core/session.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"

namespace tb::core {

struct SolverSession::Impl {
  SessionOptions opts;
  // Keyed by fingerprint(); std::map keeps iteration deterministic and
  // pointers stable (SolveResult::solver survives later insertions).
  std::map<std::string, std::unique_ptr<StencilSolver>> pool;
  std::uint64_t created = 0;
  std::uint64_t reused = 0;
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

  SolveResult out;
  const auto it = impl_->pool.find(key);
  if (it != impl_->pool.end()) {
    // Pool hit: rewind in place.  For the "auto" meta variant this is
    // where the zero-probe guarantee comes from — the solver already
    // carries its resolved plan, so no plan() call happens at all.
    StencilSolver& s = *it->second;
    if (req.aux != nullptr)
      s.reset(*req.initial, *req.aux);
    else
      s.reset(*req.initial);
    out.stats = s.advance(req.steps);
    out.solver = &s;
    out.reused = true;
    ++impl_->reused;
    reg.counter("session.solver.reuse").add(1);
    return out;
  }

  SolverConfig cfg = req.cfg;
  if (impl_->opts.telemetry) cfg.telemetry = true;
  if (!impl_->opts.tune_cache_path.empty())
    cfg.tune_cache_path = impl_->opts.tune_cache_path;
  auto solver = std::make_unique<StencilSolver>(make_solver(
      req.variant, req.op, std::move(cfg), *req.initial, req.aux));
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
