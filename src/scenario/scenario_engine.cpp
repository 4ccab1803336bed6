#include "scenario/scenario_engine.hpp"

#include <cstdio>
#include <exception>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "obs/accounting.hpp"
#include "obs/registry.hpp"
#include "obs/rundb.hpp"
#include "obs/trace.hpp"
#include "perfmodel/model_api.hpp"
#include "scenario/grids.hpp"
#include "topo/machine.hpp"
#include "util/slices.hpp"

namespace tb::scenario {

namespace {

/// SolverConfig for a case: physics knobs and the thread count mapped
/// onto every variant's block (the registry then picks whichever the
/// variant reads).  Block defaults mirror the quickstart example.
core::SolverConfig config_for(const CaseSpec& spec) {
  core::SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = spec.threads;
  cfg.pipeline.block = {spec.nx, 16, 16};
  cfg.baseline.threads = spec.threads;
  cfg.wavefront.threads = spec.threads;
  cfg.lbm.omega = spec.omega;
  cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
  cfg.lbm_geometry_from_aux = geometry_is_codes(spec);
  return cfg;
}

/// Mean of the solver's current level over the nx*ny*nz cells of
/// `shape`; row padding is neither summed nor counted.  Each z-plane is
/// summed in j, i order, the planes split over `threads`
/// (util::for_each_slice), and the plane sums are added in k order, so
/// the bits do not depend on the thread count.  Reads the rows in
/// place, so a compressed solver never copies its store out to a grid.
double solution_mean(const core::StencilSolver& solver,
                     const core::Grid3& shape, int threads) {
  const int nx = shape.nx(), ny = shape.ny(), nz = shape.nz();
  std::vector<double> plane(static_cast<std::size_t>(nz));
  util::for_each_slice(threads, 0, nz, [&](int, int k0, int k1) {
    for (int k = k0; k < k1; ++k) {
      double sum = 0.0;
      for (int j = 0; j < ny; ++j) {
        const double* row = solver.row(j, k);
        for (int i = 0; i < nx; ++i) sum += row[i];
      }
      plane[static_cast<std::size_t>(k)] = sum;
    }
  });
  double sum = 0.0;
  for (const double p : plane) sum += p;
  return sum / (static_cast<double>(nx) * ny * nz);
}

}  // namespace

ScenarioEngine::ScenarioEngine(EngineOptions opts)
    : opts_(std::move(opts)), session_(opts_.session) {}

template <class Fill>
const core::Grid3& ScenarioEngine::held_input(std::map<Shape, HeldGrid>& held,
                                              const CaseSpec& spec,
                                              std::string key, Fill&& fill) {
  const Shape shape{spec.nx, spec.ny, spec.nz};
  auto it = held.find(shape);
  if (it == held.end())
    it = held
             .emplace(shape,
                      HeldGrid{{}, core::Grid3(spec.nx, spec.ny, spec.nz)})
             .first;
  HeldGrid& h = it->second;
  if (h.key == key) return h.grid;
  h.key.clear();  // a fill that throws leaves no key to match
  fill(h.grid);
  h.key = std::move(key);
  return h.grid;
}

CaseResult ScenarioEngine::run_case(const CaseSpec& spec) {
  const obs::Span span("scenario.case", "scenario");
  obs::ScopedTimer timer(
      obs::enabled()
          ? &obs::Registry::global().histogram("scenario.case.seconds")
          : nullptr);

  const auto phases_before = obs::phase_seconds_snapshot();

  const std::string geometry = checked_geometry(spec);
  const core::Grid3& initial =
      held_input(initial_, spec, initial_key(spec),
                 [&](core::Grid3& g) { fill_initial(spec, g); });
  const core::Grid3* aux =
      geometry == "none"
          ? nullptr
          : &held_input(aux_, spec, aux_key(spec, geometry),
                        [&](core::Grid3& g) { fill_aux(spec, geometry, g); });

  core::SolveRequest req;
  req.variant = spec.variant;
  req.op = spec.op;
  req.cfg = config_for(spec);
  req.initial = &initial;
  req.aux = aux;
  req.steps = spec.steps;

  const core::SolveResult solved = session_.solve(req);

  CaseResult out;
  out.spec = spec;
  out.stats = solved.stats;
  out.reused = solved.reused;
  if (solved.solver != nullptr) {
    out.resolved_variant = core::variant_name(solved.solver->config());
    out.mean = solution_mean(*solved.solver, initial, spec.threads);
  }

  if (obs::enabled() && solved.solver != nullptr) {
    // Same model-vs-measured row the examples append, so one run
    // database holds benches, examples and scenario sweeps uniformly.
    const core::SolverConfig& rcfg = solved.solver->config();
    const std::string opname = core::operator_name(rcfg);
    const perfmodel::NodeModel model(topo::host_machine());
    obs::RunRow row;
    row.name = spec.name;
    row.bytes_per_lup = obs::model_bytes_per_lup(rcfg, opname);
    row.mlups = solved.stats.mlups();
    row.predicted_mlups = obs::predicted_solver_mlups(rcfg, opname, model,
                                                      spec.nx, spec.ny);
    row.phases = obs::phase_seconds_since(phases_before);
    row.tags = {{"scenario", scenario_name_},
                {"op", opname},
                {"variant", out.resolved_variant},
                {"reused", solved.reused ? "1" : "0"}};
    obs::append_run_rows(obs::default_rundb_path(), {row});
  }

  if (opts_.print_cases)
    std::printf("  %-44s %7.3f s %8.1f MLUP/s%s\n", spec.name.c_str(),
                out.stats.seconds, out.stats.mlups(),
                out.reused ? "  (pool hit)" : "");
  return out;
}

std::vector<CaseResult> ScenarioEngine::run(const ScenarioConfig& config) {
  scenario_name_ = config.name();
  std::vector<CaseResult> results;
  results.reserve(config.cases().size());
  for (const CaseSpec& spec : config.cases())
    results.push_back(run_case(spec));
  return results;
}

int run_scenario_file(const std::string& path,
                      const std::string& tune_cache,
                      const std::vector<IScenarioConsumer*>& consumers) {
  try {
    ScenarioConfig config;
    for (IScenarioConsumer* c : consumers) config.register_consumer(c);
    // Consumer sections (cluster sweeps etc.) run during the load.
    config.load_file(path);

    EngineOptions opts;
    opts.print_cases = true;
    opts.session.tune_cache_path = tune_cache;
    ScenarioEngine engine(opts);

    std::printf("scenario %s: %zu cases\n", config.name().c_str(),
                config.cases().size());
    const std::vector<CaseResult> results = engine.run(config);

    double total = 0.0;
    for (const CaseResult& r : results) total += r.stats.seconds;
    const core::SolverSession& session = engine.session();
    std::printf(
        "scenario %s done: %zu cases in %.3f s, %llu solvers built, "
        "%llu pool hits\n",
        config.name().c_str(), results.size(), total,
        static_cast<unsigned long long>(session.solvers_created()),
        static_cast<unsigned long long>(session.solvers_reused()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario: %s\n", e.what());
    return 1;
  }
}

}  // namespace tb::scenario
