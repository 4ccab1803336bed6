// SolverSession: the re-entrant arena behind the scenario engine.
//
// The load-bearing property: running the FULL 5-variant x 6-operator
// matrix twice through one session gives (a) bit-identical solutions to
// a fresh StencilSolver per case, (b) ZERO new AlignedBuffer
// allocations on the second pass (every grid, lattice and coefficient
// buffer is reused in place), and (c) a pool hit per repeated case.
// Plus the reset() semantics the pool rests on: rewind-to-level-0
// equals fresh construction for every operator, including the stateful
// ones (varcoef face coefficients, lbm lattices/geometry, redblack
// level origin).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/norms.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/solver.hpp"
#include "core/stencil_op.hpp"
#include "support/grid_test_utils.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::core {
namespace {

using tb::test::expect_grids_bitwise_equal;
using tb::test::make_initial;
using tb::test::make_kappa;

const std::vector<std::string> kVariants{
    "reference", "baseline", "pipelined", "compressed", "wavefront"};
const std::vector<std::string> kOperators{"jacobi", "varcoef",  "box27",
                                          "redblack", "lbm", "lbm:aa"};

/// One matrix case through the session; aux grids where the operator
/// needs them (varcoef kappa; lbm runs the built-in cavity).
SolveRequest matrix_request(const std::string& variant,
                            const std::string& op, const Grid3& initial,
                            const Grid3& kappa, int steps) {
  SolveRequest req;
  req.variant = variant;
  req.op = op;
  req.cfg.pipeline.team_size = 2;
  req.cfg.pipeline.block = {initial.nx(), 8, 8};
  req.cfg.baseline.threads = 2;
  req.cfg.wavefront.threads = 2;
  req.initial = &initial;
  req.aux = op == "varcoef" ? &kappa : nullptr;
  req.steps = steps;
  return req;
}

TEST(SolverSession, FullMatrixTwiceBitIdenticalZeroRealloc) {
  const int n = 12, steps = 5;
  const Grid3 initial = make_initial(n);
  const Grid3 kappa = make_kappa(n);

  // Fresh-solver oracles, one per (variant, operator).
  std::vector<Grid3> expected;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      StencilSolver fresh =
          make_solver(v, op, req.cfg, initial, req.aux);
      fresh.advance(steps);
      expected.push_back(fresh.solution().clone());
    }

  SolverSession session;

  // Pass 1: every case constructs its solver and must already match the
  // fresh result bit for bit.
  std::size_t idx = 0;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      const SolveResult r = session.solve(req);
      ASSERT_NE(r.solver, nullptr) << v << "/" << op;
      EXPECT_FALSE(r.reused) << v << "/" << op;
      expect_grids_bitwise_equal(r.solver->solution(), expected[idx]);
      ++idx;
    }
  EXPECT_EQ(session.pool_size(), kVariants.size() * kOperators.size());
  EXPECT_EQ(session.solvers_created(),
            kVariants.size() * kOperators.size());
  EXPECT_EQ(session.solvers_reused(), 0u);

  // Pass 2: zero new buffer allocations — the arena high-water mark and
  // allocation count must not move — and every case is a pool hit,
  // still bit-identical.
  const std::uint64_t allocs_before = util::buffer_alloc_count();
  const std::uint64_t peak_before = util::buffer_bytes_high_water();
  idx = 0;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      const SolveResult r = session.solve(req);
      ASSERT_NE(r.solver, nullptr) << v << "/" << op;
      EXPECT_TRUE(r.reused) << v << "/" << op;
      expect_grids_bitwise_equal(r.solver->solution(), expected[idx]);
      ++idx;
    }
  EXPECT_EQ(util::buffer_alloc_count(), allocs_before)
      << "second pass must not allocate any grid/lattice buffer";
  EXPECT_EQ(util::buffer_bytes_high_water(), peak_before);
  EXPECT_EQ(session.solvers_reused(),
            kVariants.size() * kOperators.size());
  EXPECT_EQ(session.pool_size(), kVariants.size() * kOperators.size());
}

TEST(SolverSession, LbmGeometryCodesResetRebuildsGeometry) {
  const int n = 10, steps = 4;
  Grid3 density(n, n, n);
  density.fill(1.0);

  // Cavity codes: closed box, top z face is the lid.
  Grid3 cavity(n, n, n);
  cavity.fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (i == 0 || j == 0 || k == 0 || i == n - 1 || j == n - 1 ||
            k == n - 1)
          cavity.at(i, j, k) = k == n - 1 ? 2.0 : 1.0;
  // Same box with a solid pillar: a genuinely different flow.
  Grid3 pillar = cavity.clone();
  for (int k = 1; k < n - 1; ++k) pillar.at(n / 2, n / 2, k) = 1.0;

  SolveRequest req;
  req.variant = "baseline";
  req.op = "lbm";
  req.cfg.lbm_geometry_from_aux = true;
  req.cfg.baseline.threads = 2;
  req.initial = &density;
  req.aux = &cavity;
  req.steps = steps;

  SolverSession session;
  const SolveResult first = session.solve(req);
  ASSERT_NE(first.solver, nullptr);

  // Same key, new geometry: the pooled solver must rebuild its masks
  // and match a fresh solver on the pillar geometry bit for bit.
  req.aux = &pillar;
  const SolveResult second = session.solve(req);
  ASSERT_NE(second.solver, nullptr);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.solver, first.solver);

  StencilSolver fresh(second.solver->config(), density, pillar);
  fresh.advance(steps);
  expect_grids_bitwise_equal(second.solver->solution(), fresh.solution());
}

TEST(SolverSession, VarcoefResetRebuildsCoefficients) {
  const int n = 10, steps = 4;
  const Grid3 initial = make_initial(n);
  const Grid3 slab = make_kappa(n);
  Grid3 uniform(n, n, n);
  uniform.fill(2.5);

  SolveRequest req;
  req.variant = "pipelined";
  req.op = "varcoef";
  req.cfg.pipeline.team_size = 2;
  req.cfg.pipeline.block = {n, 8, 8};
  req.initial = &initial;
  req.aux = &slab;
  req.steps = steps;

  SolverSession session;
  ASSERT_NE(session.solve(req).solver, nullptr);

  req.aux = &uniform;
  const SolveResult r = session.solve(req);
  ASSERT_TRUE(r.reused);

  StencilSolver fresh(r.solver->config(), initial, uniform);
  fresh.advance(steps);
  expect_grids_bitwise_equal(r.solver->solution(), fresh.solution());
}

/// Bytes `fn` leaves allocated in AlignedBuffers.
template <class Fn>
std::uint64_t bytes_added(Fn&& fn) {
  const std::uint64_t before = util::buffer_bytes_in_use();
  fn();
  return util::buffer_bytes_in_use() - before;
}

TEST(SolverSession, VarcoefSolversShareOneSetPerMaterial) {
  const int n = 12, steps = 3;
  const Grid3 initial = make_initial(n);
  const Grid3 kappa = make_kappa(n);
  const Grid3 same_bits = kappa.clone();
  const std::uint64_t before = util::buffer_bytes_in_use();
  const Grid3 probe(n, n, n);
  const std::uint64_t grid = util::buffer_bytes_in_use() - before;

  // What each schedule allocates for itself: the same solve on jacobi,
  // which has no side-channel state.
  const auto own_bytes = [&](const std::string& v) {
    const SolveRequest req = matrix_request(v, "jacobi", initial, kappa, 0);
    const std::uint64_t b = util::buffer_bytes_in_use();
    StencilSolver s = make_solver(v, "jacobi", req.cfg, initial);
    s.advance(steps);
    return util::buffer_bytes_in_use() - b;
  };

  SolverSession session;
  std::vector<SolveResult> results;
  // The first solver of a material adds its grids, three face fields and
  // the kappa copy the session compares against.
  EXPECT_EQ(bytes_added([&] {
              results.push_back(session.solve(matrix_request(
                  "pipelined", "varcoef", initial, kappa, steps)));
            }),
            own_bytes("pipelined") + 4 * grid);
  // Every further solver of that shape and material adds its own grids
  // only.
  for (const char* v : {"baseline", "compressed", "wavefront"}) {
    EXPECT_EQ(bytes_added([&] {
                results.push_back(session.solve(
                    matrix_request(v, "varcoef", initial, same_bits, steps)));
              }),
              own_bytes(v))
        << v;
    EXPECT_EQ(results.back().solver->coefficients(),
              results.front().solver->coefficients())
        << v;
  }

  // A hit on the same kappa bits computes and allocates nothing.
  const std::uint64_t allocs = util::buffer_alloc_count();
  for (const char* v : {"pipelined", "baseline", "compressed"}) {
    const SolveResult r =
        session.solve(matrix_request(v, "varcoef", initial, same_bits, steps));
    EXPECT_TRUE(r.reused) << v;
  }
  EXPECT_EQ(util::buffer_alloc_count(), allocs);

  for (const SolveResult& r : results) {
    StencilSolver fresh(r.solver->config(), initial, kappa);
    fresh.advance(steps);
    expect_grids_bitwise_equal(r.solver->solution(), fresh.solution());
  }
}

TEST(SolverSession, VarcoefSolversOnDifferentKappasStayApart) {
  // Two pooled solvers of one shape, solved alternately on different
  // materials: each must keep running on its own kappa, also when
  // advanced again through its returned SolveResult::solver after the
  // other was solved.  The steps are no multiple of the sweep depth, so
  // the remainder's baseline scheme reads the set too.
  const int n = 10, steps = 5, more = 3;
  const Grid3 initial = make_initial(n);
  const Grid3 a = make_kappa(n);
  Grid3 b(n, n, n), c(n, n, n);
  b.fill(2.5);
  fill_cells(c, 1, 0.0, [](int i, int j, int k) {
    return 1.0 + 0.25 * ((i + 2 * j + 3 * k) % 5);
  });

  const auto expect_on = [&](StencilSolver& s, const Grid3& kappa,
                             int levels) {
    StencilSolver fresh(s.config(), initial, kappa);
    fresh.advance(levels);
    expect_grids_bitwise_equal(s.solution(), fresh.solution());
  };

  SolverSession session;
  const auto solve = [&](const std::string& v, const Grid3& kappa) {
    const SolveResult r =
        session.solve(matrix_request(v, "varcoef", initial, kappa, steps));
    expect_on(*r.solver, kappa, steps);
    return r.solver;
  };

  StencilSolver* x = solve("pipelined", a);
  StencilSolver* y = solve("compressed", b);
  x->advance(more);
  expect_on(*x, a, steps + more);

  // x moves to b, whose set y already reads: bound, not rebuilt.
  x = solve("pipelined", b);
  EXPECT_EQ(x->coefficients(), y->coefficients());
  const DiffusionCoefficients* set_b = x->coefficients();
  y->advance(more);
  expect_on(*y, b, steps + more);

  // y moves to c while x still reads b: a new set, x keeps b.
  y = solve("compressed", c);
  EXPECT_NE(y->coefficients(), set_b);
  EXPECT_EQ(x->coefficients(), set_b);
  x->advance(more);
  expect_on(*x, b, steps + more);

  // x moves to a while nobody else reads b: b's set is refilled in place.
  x = solve("pipelined", a);
  EXPECT_EQ(x->coefficients(), set_b);
  y->advance(more);
  expect_on(*y, c, steps + more);
  x->advance(more);
  expect_on(*x, a, steps + more);

  // A kappa of another shape is refused on a hit and on a miss, and
  // leaves x on its material.
  const Grid3 bigger = make_kappa(n + 1);
  for (const char* v : {"pipelined", "baseline"})
    EXPECT_THROW(
        session.solve(matrix_request(v, "varcoef", initial, bigger, steps)),
        std::invalid_argument)
        << v;
  EXPECT_EQ(x->coefficients(), set_b);
}

TEST(StencilSolverReset, VarcoefSharedSetContract) {
  const int n = 8, steps = 3;
  const Grid3 initial = make_initial(n);
  const Grid3 kappa = make_kappa(n);
  SolverConfig cfg;
  cfg.variant = Variant::kBaseline;
  cfg.baseline.threads = 2;
  cfg.op = Operator::kVarCoef;
  const auto set = std::make_shared<const DiffusionCoefficients>(kappa);
  const auto other = std::make_shared<const DiffusionCoefficients>(
      make_kappa(n + 1));

  // Two solvers on one set read it, and match a solver on its own set.
  StencilSolver s1(cfg, initial, set), s2(cfg, initial, set);
  EXPECT_EQ(s1.coefficients(), set.get());
  StencilSolver own(cfg, initial, kappa);
  EXPECT_NE(own.coefficients(), set.get());
  for (StencilSolver* s : {&s1, &s2, &own}) s->advance(steps);
  expect_grids_bitwise_equal(s1.solution(), own.solution());
  expect_grids_bitwise_equal(s2.solution(), own.solution());

  // A new kappa gives s1 a private set and leaves the shared one alone.
  Grid3 uniform(n, n, n);
  uniform.fill(2.5);
  s1.reset(initial, uniform);
  EXPECT_NE(s1.coefficients(), set.get());
  s1.advance(steps);
  StencilSolver fresh(cfg, initial, uniform);
  fresh.advance(steps);
  expect_grids_bitwise_equal(s1.solution(), fresh.solution());
  s2.reset(initial, set);
  s2.advance(steps);
  expect_grids_bitwise_equal(s2.solution(), own.solution());

  EXPECT_THROW(s1.reset(initial, other), std::invalid_argument);
  EXPECT_THROW(StencilSolver(cfg, initial, other), std::invalid_argument);
  EXPECT_THROW(
      StencilSolver(cfg, initial,
                    std::shared_ptr<const DiffusionCoefficients>()),
      std::invalid_argument);
  SolverConfig jacobi = cfg;
  jacobi.op = Operator::kJacobi;
  EXPECT_THROW(StencilSolver(jacobi, initial, set), std::invalid_argument);
  StencilSolver j(jacobi, initial);
  EXPECT_EQ(j.coefficients(), nullptr);
  EXPECT_THROW(j.reset(initial, set), std::invalid_argument);
}

TEST(SolverSession, DistinctShapesGetDistinctSolvers) {
  const Grid3 small = make_initial(8);
  const Grid3 big = make_initial(12);

  SolveRequest req;
  req.variant = "baseline";
  req.op = "jacobi";
  req.steps = 2;

  SolverSession session;
  req.initial = &small;
  const StencilSolver* s1 = session.solve(req).solver;
  req.initial = &big;
  const StencilSolver* s2 = session.solve(req).solver;
  EXPECT_NE(s1, s2);
  EXPECT_EQ(session.pool_size(), 2u);
  EXPECT_EQ(session.solvers_reused(), 0u);
}

TEST(SolverSession, PoolKeySeparatesEveryConfigField) {
  const Grid3 initial = make_initial(8);
  SolveRequest base;
  base.variant = "pipelined";
  base.op = "lbm";
  base.initial = &initial;
  const std::string key = SolverSession::fingerprint(base);

  // (a) One mutation per settable field of PipelineConfig,
  // BaselineConfig, WavefrontConfig and LbmConfig, and per lbm_* field.
  // Doubles move by one ulp: a key that rounds them collides.
  const std::vector<std::pair<const char*, void (*)(SolverConfig&)>>
      mutations{
          {"teams", [](SolverConfig& c) { c.pipeline.teams = 2; }},
          {"team_size", [](SolverConfig& c) { c.pipeline.team_size = 3; }},
          {"steps_per_thread",
           [](SolverConfig& c) { c.pipeline.steps_per_thread = 2; }},
          {"pipeline.block.bx",
           [](SolverConfig& c) { c.pipeline.block.bx += 1; }},
          {"pipeline.block.by",
           [](SolverConfig& c) { c.pipeline.block.by += 1; }},
          {"pipeline.block.bz",
           [](SolverConfig& c) { c.pipeline.block.bz += 1; }},
          {"dl", [](SolverConfig& c) { c.pipeline.dl = 2; }},
          {"du", [](SolverConfig& c) { c.pipeline.du = 5; }},
          {"dt", [](SolverConfig& c) { c.pipeline.dt = 1; }},
          {"sync",
           [](SolverConfig& c) { c.pipeline.sync = SyncMode::kBarrier; }},
          {"scheme",
           [](SolverConfig& c) {
             c.pipeline.scheme = GridScheme::kCompressed;
           }},
          {"baseline.threads",
           [](SolverConfig& c) { c.baseline.threads = 2; }},
          {"baseline.block.bx",
           [](SolverConfig& c) { c.baseline.block.bx += 1; }},
          {"baseline.block.by",
           [](SolverConfig& c) { c.baseline.block.by += 1; }},
          {"baseline.block.bz",
           [](SolverConfig& c) { c.baseline.block.bz += 1; }},
          {"nontemporal",
           [](SolverConfig& c) { c.baseline.nontemporal = false; }},
          {"wavefront.threads",
           [](SolverConfig& c) { c.wavefront.threads = 2; }},
          {"omega",
           [](SolverConfig& c) {
             c.lbm.omega = std::nextafter(c.lbm.omega, 3.0);
           }},
          {"rho0",
           [](SolverConfig& c) {
             c.lbm.rho0 = std::nextafter(c.lbm.rho0, 3.0);
           }},
          {"lid_velocity[0]",
           [](SolverConfig& c) {
             c.lbm.lid_velocity[0] =
                 std::nextafter(c.lbm.lid_velocity[0], 3.0);
           }},
          {"lid_velocity[1]",
           [](SolverConfig& c) { c.lbm.lid_velocity[1] = 1e-300; }},
          {"lid_velocity[2]",
           [](SolverConfig& c) { c.lbm.lid_velocity[2] = 1e-300; }},
          {"lbm_storage",
           [](SolverConfig& c) { c.lbm_storage = lbm::LbmStorage::kAA; }},
          {"lbm_geometry_from_aux",
           [](SolverConfig& c) { c.lbm_geometry_from_aux = true; }},
          {"lbm_prefetch", [](SolverConfig& c) { c.lbm_prefetch = 8; }},
      };
  std::set<std::string> keys{key};
  for (const auto& [name, mutate] : mutations) {
    SolveRequest req = base;
    mutate(req.cfg);
    const std::string k = SolverSession::fingerprint(req);
    EXPECT_NE(k, key) << name;
    EXPECT_TRUE(keys.insert(k).second) << name << " collides";
  }

  // (b) Two omegas that agree in their first seven digits must run as
  // two solvers; the second one with its own omega.
  SolverSession session;
  SolveRequest req = base;
  req.variant = "baseline";
  req.steps = 3;
  req.cfg.lbm.omega = 1.2345671;
  session.solve(req);
  StencilSolver first =
      make_solver(req.variant, req.op, req.cfg, initial, nullptr);
  first.advance(req.steps);
  req.cfg.lbm.omega = 1.2345674;
  const SolveResult second = session.solve(req);
  EXPECT_EQ(session.pool_size(), 2u);
  EXPECT_FALSE(second.reused);

  StencilSolver fresh =
      make_solver(req.variant, req.op, req.cfg, initial, nullptr);
  fresh.advance(req.steps);
  // The two omegas give different flows, so reusing the first solver
  // would show in the bits.
  EXPECT_GT(max_abs_diff(first.solution(), fresh.solution()), 0.0);
  expect_grids_bitwise_equal(second.solver->solution(), fresh.solution());
}

TEST(SolverSession, NullInitialThrows) {
  SolverSession session;
  SolveRequest req;
  req.variant = "baseline";
  req.op = "jacobi";
  EXPECT_THROW(session.solve(req), std::invalid_argument);
}

TEST(StencilSolverReset, ShapeMismatchThrows) {
  const Grid3 initial = make_initial(8);
  const Grid3 other = make_initial(10);
  SolverConfig cfg;
  cfg.variant = Variant::kReference;
  StencilSolver solver(cfg, initial);
  EXPECT_THROW(solver.reset(other), std::invalid_argument);
}

TEST(StencilSolverReset, RewindsAfterOddStepCounts) {
  // Odd step counts leave the facade with swapped parities internally;
  // reset must still reproduce a fresh solver exactly.
  for (const std::string& v :
       {std::string("baseline"), std::string("compressed"),
        std::string("wavefront")}) {
    const Grid3 initial = make_initial(9);
    SolverConfig cfg;
    cfg.pipeline.team_size = 2;
    cfg.pipeline.block = {9, 8, 8};
    cfg.baseline.threads = 2;
    cfg.wavefront.threads = 2;
    StencilSolver solver = make_solver(v, "jacobi", cfg, initial, nullptr);
    solver.advance(3);  // odd: parity swap path
    solver.reset(initial);
    EXPECT_EQ(solver.levels_done(), 0);
    solver.advance(5);

    StencilSolver fresh = make_solver(v, "jacobi", cfg, initial, nullptr);
    fresh.advance(5);
    expect_grids_bitwise_equal(solver.solution(), fresh.solution());
  }
}

}  // namespace
}  // namespace tb::core
