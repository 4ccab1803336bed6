// The unified-registry matrix property:
//
//   Every (variant x operator) combination constructible by string name —
//   reference/baseline/pipelined/compressed/wavefront x
//   jacobi/varcoef/box27/redblack/lbm — is bit-identical to the naive
//   reference of the same operator, on cubic and non-cubic grids,
//   including step counts that are NOT a multiple of the team-sweep
//   depth (the remainder falls back to baseline sweeps inside the
//   facade).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>

#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "lbm/stencil_op.hpp"
#include "support/grid_test_utils.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::make_kappa;

/// Oracle: naive sweeps of the named operator.
Grid3 reference_result_op(const std::string& op, const Grid3& initial,
                          const Grid3& kappa, int steps) {
  Grid3 a = initial.clone(), b = initial.clone();
  if (op == "varcoef") {
    const auto coeffs = std::make_shared<const DiffusionCoefficients>(kappa);
    return reference_solve_op(VarCoefOp{&coeffs}, a, b, steps).clone();
  }
  if (op == "box27")
    return reference_solve_op(Box27Op{}, a, b, steps).clone();
  if (op == "redblack")
    // Default-constructed op: absolute levels 1..steps, exactly what the
    // facade reproduces through its LevelOrigin bookkeeping.
    return reference_solve_op(RedBlackOp{}, a, b, steps).clone();
  if (op == "lbm" || op == "lbm:aa") {
    // The facade derives the cavity geometry from the grid shape and
    // evolves the density carrier; replicate with the naive cell loop.
    // The oracle is ALWAYS the two-lattice ping-pong: the "lbm:aa" rows
    // thereby pit the in-place AA storage against it bit for bit.
    lbm::LbmState state(
        lbm::Geometry::cavity(initial.nx(), initial.ny(), initial.nz()),
        lbm::LbmConfig{}, initial);
    Grid3 carrier = initial.clone();
    lbm::reference_advance(state, carrier, steps);
    return carrier;
  }
  return reference_solve_op(JacobiOp{}, a, b, steps).clone();
}

struct MatrixCase {
  std::string variant;
  std::string op;
  std::array<int, 3> grid{16, 16, 16};
  int steps = 8;  ///< deliberately includes non-multiples of the depth

  friend std::ostream& operator<<(std::ostream& os, const MatrixCase& c) {
    return os << c.variant << "_" << c.op << "_g" << c.grid[0] << "x"
              << c.grid[1] << "x" << c.grid[2] << "_s" << c.steps;
  }
};

class StencilMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(StencilMatrix, BitIdenticalToReference) {
  const MatrixCase c = GetParam();
  const Grid3 initial = make_initial(c.grid[0], c.grid[1], c.grid[2]);
  const Grid3 kappa = make_kappa(c.grid[0], c.grid[1], c.grid[2]);

  SolverConfig cfg;
  cfg.baseline.threads = 2;
  cfg.baseline.block = {6, 5, 4};
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;  // depth 4
  cfg.pipeline.block = {6, 5, 4};
  cfg.wavefront.threads = 3;          // depth 3

  StencilSolver solver = make_solver(c.variant, c.op, cfg, initial, &kappa);
  solver.advance(c.steps);
  const Grid3 expected =
      reference_result_op(c.op, initial, kappa, c.steps);
  ASSERT_EQ(max_abs_diff(solver.solution(), expected), 0.0) << c;
}

/// The full registry matrix on a cubic grid with whole team sweeps.
std::vector<MatrixCase> full_matrix() {
  std::vector<MatrixCase> cases;
  for (const std::string& v : registered_variants())
    for (const std::string& op : registered_operators())
      cases.push_back({v, op, {16, 16, 16}, 12});  // 3 pipelined, 4 wave sweeps
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FullMatrixCubic, StencilMatrix,
                         ::testing::ValuesIn(full_matrix()));

/// Non-cubic grids and remainder steps for every combination: 7 is not a
/// multiple of the pipelined depth (4) or the wavefront depth (3), so
/// every temporally blocked variant exercises its baseline fallback.
std::vector<MatrixCase> remainder_matrix() {
  std::vector<MatrixCase> cases;
  for (const std::string& v : registered_variants())
    for (const std::string& op : registered_operators()) {
      cases.push_back({v, op, {13, 17, 11}, 7});
      cases.push_back({v, op, {9, 20, 14}, 5});
    }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RemainderNonCubic, StencilMatrix,
                         ::testing::ValuesIn(remainder_matrix()));

// ---- registry behaviour ----------------------------------------------

TEST(Registry, EnumeratesTheFullMatrix) {
  EXPECT_EQ(registered_variants().size(), 5u);
  EXPECT_EQ(registered_operators().size(), 6u);  // incl. the lbm:aa alias
}

TEST(Registry, MetaVariantsAreSelectableButNotEnumerable) {
  // This suite links tb_core only, so no meta variant is installed yet:
  // registration is dynamic and selectable_variants() reflects it.
  EXPECT_EQ(selectable_variants().size(),
            registered_variants().size() +
                registered_meta_variants().size());
  register_meta_variant("always-baseline",
                        [](std::string_view op, SolverConfig cfg,
                           const Grid3& initial, const Grid3* kappa) {
                          apply_variant(cfg, "baseline");
                          return make_solver("baseline", op, cfg, initial,
                                             kappa);
                        });
  EXPECT_EQ(selectable_variants().size(),
            registered_variants().size() +
                registered_meta_variants().size());
  // Enumerable sweeps (benches, equivalence matrices) never see it...
  for (const std::string& v : registered_variants())
    EXPECT_NE(v, "always-baseline");
  // ...but make_solver resolves it, and the resolved solver matches the
  // reference bit for bit like any concrete variant.
  const Grid3 initial = make_initial(10, 10, 10);
  SolverConfig cfg;
  cfg.baseline.threads = 2;
  StencilSolver s = make_solver("always-baseline", "jacobi", cfg, initial);
  s.advance(3);
  EXPECT_EQ(max_abs_diff(s.solution(),
                         tb::test::reference_result(initial, 3)),
            0.0);
  // Meta names must not shadow concrete ones.
  EXPECT_THROW(register_meta_variant("baseline", nullptr),
               std::invalid_argument);
}

TEST(Registry, MetaVariantNameSurvivesConfigureRoundTrip) {
  register_meta_variant("roundtrip-meta",
                        [](std::string_view op, SolverConfig cfg,
                           const Grid3& initial, const Grid3* kappa) {
                          return make_solver("reference", op, cfg, initial,
                                             kappa);
                        });
  SolverConfig cfg;
  ASSERT_TRUE(apply_variant(cfg, "roundtrip-meta"));
  EXPECT_EQ(variant_name(cfg), "roundtrip-meta");
  ASSERT_TRUE(apply_variant(cfg, "pipelined"));  // concrete clears meta
  EXPECT_EQ(variant_name(cfg), "pipelined");
}

TEST(Registry, UnknownNamesThrow) {
  const Grid3 initial = make_initial(8, 8, 8);
  SolverConfig cfg;
  EXPECT_THROW(make_solver("gauss-seidel", "jacobi", cfg, initial),
               std::invalid_argument);
  EXPECT_THROW(make_solver("pipelined", "d2q9", cfg, initial),
               std::invalid_argument);
}

TEST(Registry, VarCoefWithoutKappaThrows) {
  const Grid3 initial = make_initial(8, 8, 8);
  SolverConfig cfg;
  EXPECT_THROW(make_solver("baseline", "varcoef", cfg, initial),
               std::invalid_argument);
  EXPECT_THROW(StencilSolver(
                   [] {
                     SolverConfig c;
                     c.op = Operator::kVarCoef;
                     return c;
                   }(),
                   initial),
               std::invalid_argument);
}

TEST(Registry, CompressedNameSelectsTheCompressedScheme) {
  SolverConfig cfg;
  ASSERT_TRUE(apply_variant(cfg, "compressed"));
  EXPECT_EQ(cfg.variant, Variant::kPipelined);
  EXPECT_EQ(cfg.pipeline.scheme, GridScheme::kCompressed);
  EXPECT_EQ(variant_name(cfg), "compressed");
  ASSERT_TRUE(apply_variant(cfg, "pipelined"));
  EXPECT_EQ(cfg.pipeline.scheme, GridScheme::kTwoGrid);
  EXPECT_EQ(variant_name(cfg), "pipelined");
}

TEST(Registry, RoundTripsEveryName) {
  for (const std::string& v : registered_variants()) {
    SolverConfig cfg;
    ASSERT_TRUE(apply_variant(cfg, v));
    EXPECT_EQ(variant_name(cfg), v);
  }
  for (const std::string& op : registered_operators()) {
    SolverConfig cfg;
    ASSERT_TRUE(apply_operator(cfg, op));
    // operator_name folds the storage policy back into the registry
    // name ("lbm:aa"); to_string(cfg.op) alone cannot round-trip it.
    EXPECT_EQ(operator_name(cfg), op);
  }
}

// ---- red–black semantics ----------------------------------------------

TEST(RedBlack, TwoLevelsAreOneGaussSeidelIteration) {
  // Level 1 updates the odd-sum color from the initial state; level 2
  // updates the even-sum color reading the fresh odd values — together
  // exactly one classic in-place red–black Gauss–Seidel iteration, and
  // bit-identically so (a red cell's six face neighbours are all black,
  // so the two-grid copy-through changes nothing about what is read).
  const Grid3 initial = make_initial(8, 7, 9);
  SolverConfig cfg;
  StencilSolver solver = make_solver("reference", "redblack", cfg, initial);
  solver.advance(2);

  Grid3 g = initial.clone();
  for (int color : {1, 0})
    for (int k = 1; k < g.nz() - 1; ++k)
      for (int j = 1; j < g.ny() - 1; ++j)
        for (int i = 1; i < g.nx() - 1; ++i)
          if (((i + j + k) & 1) == color)
            g.at(i, j, k) = (g.at(i - 1, j, k) + g.at(i + 1, j, k) +
                             g.at(i, j - 1, k) + g.at(i, j + 1, k) +
                             g.at(i, j, k - 1) + g.at(i, j, k + 1)) *
                            (1.0 / 6.0);
  EXPECT_EQ(max_abs_diff(solver.solution(), g), 0.0);
}

TEST(RedBlack, ColorPhaseSurvivesChainedAdvances) {
  // 3 then 5 steps must equal 8 straight steps: the facade's LevelOrigin
  // keeps the color alternation absolute across advance() calls and the
  // temporally blocked variants' remainder phases — also when the
  // compressed store stays resident between the calls.
  const Grid3 initial = make_initial(12, 10, 11);
  SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {5, 4, 4};
  for (const char* variant : {"pipelined", "compressed"}) {
    SCOPED_TRACE(variant);
    StencilSolver once = make_solver(variant, "redblack", cfg, initial);
    once.advance(8);
    StencilSolver stepwise = make_solver(variant, "redblack", cfg, initial);
    stepwise.advance(3);  // 3 remainder levels
    stepwise.advance(5);  // 1 sweep + 1 remainder
    EXPECT_EQ(max_abs_diff(once.solution(), stepwise.solution()), 0.0);
    EXPECT_EQ(max_abs_diff(once.solution(),
                           reference_result_op("redblack", initial, initial,
                                               8)),
              0.0);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise comparison of the solver's current level, read through
/// row(), against `want`.
void expect_rows_bitwise_equal(const StencilSolver& solver,
                               const Grid3& want) {
  for (int k = 0; k < want.nz(); ++k)
    for (int j = 0; j < want.ny(); ++j) {
      const double* row = solver.row(j, k);
      for (int i = 0; i < want.nx(); ++i)
        ASSERT_TRUE(same_bits(row[i], want.at(i, j, k)))
            << "at (" << i << "," << j << "," << k << ")";
    }
}

/// Depth S = 4 (one team of two threads, T = 2) on a non-cubic grid.
SolverConfig chained_config() {
  SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {5, 4, 4};
  return cfg;
}

class CompressedChained : public ::testing::TestWithParam<const char*> {};

TEST_P(CompressedChained, ResidentStoreMatchesReference) {
  // The compressed store is the solver's state across advance() calls.
  // Remainder-only, sweep-plus-remainder and whole-sweep calls (the
  // latter alternating sweep directions from call to call), read through
  // both solution() and row(), with a reset to different data in the
  // middle, must all match the naive reference bit for bit.
  const std::string op = GetParam();
  const Grid3 initial = make_initial(12, 10, 11);
  Grid3 other(12, 10, 11);
  fill_test_pattern(other, 0.5);  // other boundary values too
  const SolverConfig cfg = chained_config();
  ASSERT_EQ(cfg.pipeline.levels_per_sweep(), 4);
  StencilSolver solver = make_solver("compressed", op, cfg, initial);

  const auto expect_at = [&](const Grid3& init, int level, bool via_rows) {
    const Grid3 want = reference_result_op(op, init, init, level);
    if (via_rows) {
      expect_rows_bitwise_equal(solver, want);
    } else {
      tb::test::expect_grids_bitwise_equal(solver.solution(), want);
    }
  };

  solver.advance(3);  // remainder only
  expect_at(initial, 3, false);
  solver.advance(5);  // one sweep plus one remainder
  expect_at(initial, 8, true);
  solver.advance(4);  // reloads the store: forward sweep
  expect_at(initial, 12, true);
  solver.advance(4);  // resident store at margin 0: backward sweep
  expect_at(initial, 16, false);
  expect_at(initial, 16, true);
  solver.advance(4);  // forward again
  expect_at(initial, 20, true);
  EXPECT_EQ(solver.levels_done(), 20);

  solver.reset(other);
  expect_at(other, 0, true);
  solver.advance(4);
  expect_at(other, 4, true);
  solver.advance(5);  // the remainder reads the new boundary values
  expect_at(other, 9, false);
  solver.advance(4);
  expect_at(other, 13, true);
}

TEST_P(CompressedChained, OddDepthKeepsTheAbsoluteLevel) {
  // With S = 3 each call that starts on the resident store starts at an
  // odd absolute level, so a level counted twice (once by the store,
  // once by the facade's LevelOrigin) flips the red-black color and the
  // lbm distribution parity.
  const std::string op = GetParam();
  const Grid3 initial = make_initial(12, 10, 11);
  SolverConfig cfg = chained_config();
  cfg.pipeline.team_size = 3;
  cfg.pipeline.steps_per_thread = 1;
  ASSERT_EQ(cfg.pipeline.levels_per_sweep(), 3);
  StencilSolver solver = make_solver("compressed", op, cfg, initial);
  int level = 0;
  for (const int steps : {3, 3, 6, 4, 3}) {
    solver.advance(steps);
    level += steps;
    SCOPED_TRACE(level);
    expect_rows_bitwise_equal(
        solver, reference_result_op(op, initial, initial, level));
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, CompressedChained,
                         ::testing::Values("jacobi", "redblack", "box27",
                                           "lbm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(CompressedFootprint, HoldsOneStoreUntilSolutionIsRead) {
  // Through the facade, a compressed solver advanced by whole sweeps and
  // read through row() holds exactly one buffer, its store; solution()
  // adds exactly one grid, once.  Its bytes stay below 0.75x those of a
  // two-grid solver of the same shape (the S-cell margin and the row
  // padding are small next to the grid at n = 64).
  const int n = 64;
  const Grid3 initial = make_initial(n);
  const Grid3 want = reference_result_op("jacobi", initial, initial, 12);
  SolverConfig cfg = chained_config();
  cfg.pipeline.block = {n, 8, 8};

  std::uint64_t bytes0 = util::buffer_bytes_in_use();
  const Grid3 probe(n, n, n);
  const std::uint64_t grid_bytes = util::buffer_bytes_in_use() - bytes0;
  ASSERT_GT(grid_bytes, 0u);

  bytes0 = util::buffer_bytes_in_use();
  const StencilSolver two = make_solver("pipelined", "jacobi", cfg, initial);
  const std::uint64_t two_bytes = util::buffer_bytes_in_use() - bytes0;
  EXPECT_GE(two_bytes, 2 * grid_bytes);

  const std::uint64_t allocs0 = util::buffer_alloc_count();
  bytes0 = util::buffer_bytes_in_use();
  StencilSolver comp = make_solver("compressed", "jacobi", cfg, initial);
  comp.advance(8);
  comp.advance(4);
  expect_rows_bitwise_equal(comp, want);
  EXPECT_EQ(util::buffer_alloc_count() - allocs0, 1u);
  const std::uint64_t comp_bytes = util::buffer_bytes_in_use() - bytes0;
  EXPECT_LT(static_cast<double>(comp_bytes), 0.75 * two_bytes);

  tb::test::expect_grids_bitwise_equal(comp.solution(), want);
  EXPECT_EQ(util::buffer_alloc_count() - allocs0, 2u);
  EXPECT_EQ(util::buffer_bytes_in_use() - bytes0, comp_bytes + grid_bytes);
  comp.advance(4);
  (void)comp.solution();
  EXPECT_EQ(util::buffer_alloc_count() - allocs0, 2u);
}

// ---- facade properties across the new axes ---------------------------

TEST(StencilFacade, SolutionIsAStableViewNotACopy) {
  const Grid3 initial = make_initial(10, 10, 10);
  SolverConfig cfg;
  cfg.variant = Variant::kBaseline;
  cfg.baseline.threads = 2;
  StencilSolver solver(cfg, initial);
  solver.advance(2);
  const Grid3* first = &solver.solution();
  // Repeated reads return the same storage; no per-call copy-out buffer.
  EXPECT_EQ(first, &solver.solution());
  solver.advance(1);  // odd parity: the facade swaps back into place
  EXPECT_EQ(max_abs_diff(solver.solution(),
                         tb::test::reference_result(initial, 3)),
            0.0);
}

TEST(StencilFacade, WavefrontIncrementalAdvanceEqualsOneShot) {
  const Grid3 initial = make_initial(14, 12, 16);
  SolverConfig cfg;
  cfg.variant = Variant::kWavefront;
  cfg.wavefront.threads = 3;
  StencilSolver once(cfg, initial);
  once.advance(9);
  StencilSolver stepwise(cfg, initial);
  stepwise.advance(4);  // 1 sweep + 1 remainder
  stepwise.advance(5);  // 1 sweep + 2 remainder
  EXPECT_EQ(stepwise.levels_done(), 9);
  EXPECT_EQ(max_abs_diff(once.solution(), stepwise.solution()), 0.0);
}

TEST(StencilFacade, CompressedVarCoefMatchesTwoGridVarCoef) {
  // The compressed scheme drifts the solution window through its
  // allocation while the coefficient fields stay at fixed logical
  // coordinates — the two storage schemes must agree bit for bit.
  const Grid3 initial = make_initial(15, 15, 15);
  const Grid3 kappa = make_kappa(15, 15, 15);
  SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {5, 4, 4};
  StencilSolver two = make_solver("pipelined", "varcoef", cfg, initial,
                                  &kappa);
  StencilSolver comp = make_solver("compressed", "varcoef", cfg, initial,
                                   &kappa);
  const int steps = 3 * cfg.pipeline.levels_per_sweep();  // odd sweeps
  two.advance(steps);
  comp.advance(steps);
  EXPECT_EQ(max_abs_diff(two.solution(), comp.solution()), 0.0);
}

}  // namespace
}  // namespace tb::core
