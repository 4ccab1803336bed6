#include "tune/measure.hpp"

#include <algorithm>

#include "core/registry.hpp"
#include "tune/search_space.hpp"

namespace tb::tune {

namespace {

/// Clamps a (j, k) tile extent to the probe interior (>= 1).
int clip_tile(int tile, int interior) {
  return std::clamp(tile, 1, std::max(1, interior));
}

}  // namespace

Candidate project_to_probe(Candidate c, const Problem& p, int nx, int ny,
                           int nz, const topo::MachineSpec& machine) {
  const int iy = ny - 2, iz = nz - 2;
  // Blocks enumerated for the full problem may exceed the probe grid;
  // clip EVERY extent — not just bx — so the probe exercises the same
  // schedule shape instead of collapsing to one fat tile per sweep.
  c.cfg.pipeline.block.bx = std::min(c.cfg.pipeline.block.bx, nx);
  c.cfg.pipeline.block.by = clip_tile(c.cfg.pipeline.block.by, iy);
  c.cfg.pipeline.block.bz = clip_tile(c.cfg.pipeline.block.bz, iz);
  c.cfg.baseline.block.bx = std::min(c.cfg.baseline.block.bx, nx);
  c.cfg.baseline.block.by = clip_tile(c.cfg.baseline.block.by, iy);
  c.cfg.baseline.block.bz = clip_tile(c.cfg.baseline.block.bz, iz);
  // The enumeration decided the streaming-store flag from the FULL
  // problem's working set, but the probe grid is usually cache-resident,
  // where NT stores only lose; measurement and deployment must each
  // apply the paper's Sec. 1.1 criterion to the grid they actually run.
  // Every variant carries the flag now (the blocked schemes' remainder
  // sweeps are baseline sweeps), so re-derive it wherever it is set.
  if (c.cfg.baseline.nontemporal)
    c.cfg.baseline.nontemporal = nontemporal_pays(p.op, nx, ny, nz, machine);
  return c;
}

double measure_candidate(const Candidate& c, const Problem& p,
                         const ProbeOptions& opts) {
  const int nx = std::clamp(p.nx, 4, std::max(4, opts.max_extent));
  const int ny = std::clamp(p.ny, 4, std::max(4, opts.max_extent));
  const int nz = std::clamp(p.nz, 4, std::max(4, opts.max_extent));
  const topo::MachineSpec machine =
      opts.machine.has_value() ? *opts.machine : topo::host_machine();

  core::Grid3 initial(nx, ny, nz);
  core::fill_test_pattern(initial);
  // Only read by operators that take a material field.
  const core::Grid3 kappa = core::make_slab_kappa(nx, ny, nz);

  core::SolverConfig cfg;
  project_to_probe(c, p, nx, ny, nz, machine).apply(cfg);

  core::StencilSolver solver =
      core::make_solver(c.variant, p.op, cfg, initial, &kappa);

  const int depth = std::max(1, c.cfg.sweep_depth());
  const int timed =
      ((std::max(opts.min_steps, 2 * depth) + depth - 1) / depth) * depth;
  solver.advance(depth);  // warm-up sweep: pools, pages, caches
  const core::RunStats st = solver.advance(timed);
  return st.mlups();
}

}  // namespace tb::tune
