// Tests for the baseline (standard) solver and the JacobiSolver facade.
#include <gtest/gtest.h>

#include <string>

#include "support/grid_test_utils.hpp"
#include "core/reference.hpp"
#include "core/solver.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::reference_result;

// ---- baseline --------------------------------------------------------

struct BaselineCase {
  int threads;
  BlockSize block;
  bool nontemporal;
};

class BaselineSweep : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineSweep, MatchesReference) {
  const BaselineCase c = GetParam();
  const Grid3 initial = make_initial(19, 15, 13);
  SolverConfig cfg;
  cfg.variant = Variant::kBaseline;
  cfg.baseline.threads = c.threads;
  cfg.baseline.block = c.block;
  cfg.baseline.nontemporal = c.nontemporal;
  JacobiSolver solver(cfg, initial);
  solver.advance(7);
  EXPECT_EQ(max_abs_diff(solver.solution(), reference_result(initial, 7)),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineSweep,
    ::testing::Values(
        BaselineCase{1, {19, 4, 4}, true}, BaselineCase{1, {19, 4, 4}, false},
        BaselineCase{2, {8, 3, 5}, true}, BaselineCase{4, {5, 2, 2}, true},
        BaselineCase{3, {19, 13, 11}, false},
        BaselineCase{8, {4, 4, 4}, true}),
    // Named by their fields: gtest's default name dumps the struct's
    // bytes, padding included, which need not be the same from build to
    // build.
    [](const ::testing::TestParamInfo<BaselineCase>& i) {
      const BaselineCase& c = i.param;
      return "t" + std::to_string(c.threads) + "_" +
             std::to_string(c.block.bx) + "x" + std::to_string(c.block.by) +
             "x" + std::to_string(c.block.bz) +
             (c.nontemporal ? "_nt" : "_cached");
    });

TEST(Baseline, RejectsBadConfig) {
  BaselineConfig cfg;
  cfg.threads = 0;
  EXPECT_THROW(BaselineJacobi(cfg, 8, 8, 8), std::invalid_argument);
  cfg.threads = 1;
  cfg.block.by = 0;
  EXPECT_THROW(BaselineJacobi(cfg, 8, 8, 8), std::invalid_argument);
}

TEST(Baseline, StatsCountUpdates) {
  const Grid3 initial = make_initial(10, 10, 10);
  BaselineConfig cfg;
  cfg.threads = 2;
  BaselineJacobi solver(cfg, 10, 10, 10);
  Grid3 a = initial.clone(), b = initial.clone();
  const RunStats st = solver.run(a, b, 3);
  EXPECT_EQ(st.cell_updates, 3LL * 8 * 8 * 8);
  EXPECT_EQ(st.levels, 3);
  EXPECT_GT(st.seconds, 0.0);
}

TEST(Baseline, SingleThreadKeepsPaceWithReference) {
  // Regression for the per-sweep thread-pool dispatch: BaselineSolver
  // used to fork/join the pool on EVERY sweep, burying small-grid
  // throughput ~25x below the single-threaded reference.  With the whole
  // step loop inside one dispatch (spin barrier between sweeps), one
  // baseline thread must stay within a wide safety factor of the
  // reference — the bound is deliberately loose (0.25x) so only a
  // reintroduced order-of-magnitude dispatch overhead can trip it.
  const int n = 32, steps = 40;
  const Grid3 initial = make_initial(n, n, n);
  SolverConfig ref_cfg;
  ref_cfg.variant = Variant::kReference;
  SolverConfig base_cfg;
  base_cfg.variant = Variant::kBaseline;
  base_cfg.baseline.threads = 1;
  base_cfg.baseline.nontemporal = false;

  double ref_mlups = 0.0, base_mlups = 0.0;
  for (int rep = 0; rep < 3; ++rep) {  // best-of-3 damps scheduler noise
    JacobiSolver ref(ref_cfg, initial);
    ref.advance(2);  // warm-up: faults the grids in
    ref_mlups = std::max(ref_mlups, ref.advance(steps).mlups());
    JacobiSolver base(base_cfg, initial);
    base.advance(2);
    base_mlups = std::max(base_mlups, base.advance(steps).mlups());
  }
  EXPECT_GT(base_mlups, 0.25 * ref_mlups);
}

// ---- facade ----------------------------------------------------------

TEST(Facade, ReferenceVariantMatchesOracle) {
  const Grid3 initial = make_initial(12, 12, 12);
  SolverConfig cfg;
  cfg.variant = Variant::kReference;
  JacobiSolver solver(cfg, initial);
  solver.advance(5);
  EXPECT_EQ(max_abs_diff(solver.solution(), reference_result(initial, 5)),
            0.0);
}

TEST(Facade, AdvanceZeroIsNoop) {
  const Grid3 initial = make_initial(8, 8, 8);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.block = {4, 4, 4};
  JacobiSolver solver(cfg, initial);
  const RunStats st = solver.advance(0);
  EXPECT_EQ(st.levels, 0);
  EXPECT_EQ(max_abs_diff(solver.solution(), initial), 0.0);
}

TEST(Facade, NegativeStepsThrow) {
  const Grid3 initial = make_initial(8, 8, 8);
  SolverConfig cfg;
  cfg.variant = Variant::kReference;
  JacobiSolver solver(cfg, initial);
  EXPECT_THROW(solver.advance(-1), std::invalid_argument);
}

TEST(Facade, RemainderStepsFallBackToBaseline) {
  // steps not a multiple of n*t*T: the facade must still produce exactly
  // the requested number of levels.
  const Grid3 initial = make_initial(14, 14, 14);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;  // depth 4
  cfg.pipeline.block = {5, 4, 4};
  for (int steps : {1, 3, 5, 7, 9, 11}) {
    JacobiSolver solver(cfg, initial);
    solver.advance(steps);
    EXPECT_EQ(
        max_abs_diff(solver.solution(), reference_result(initial, steps)),
        0.0)
        << "steps=" << steps;
  }
}

TEST(Facade, IncrementalAdvanceEqualsOneShot) {
  const Grid3 initial = make_initial(14, 12, 10);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 2;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.block = {5, 4, 4};
  const int depth = cfg.pipeline.levels_per_sweep();

  JacobiSolver once(cfg, initial);
  once.advance(3 * depth);

  JacobiSolver stepwise(cfg, initial);
  stepwise.advance(depth);
  stepwise.advance(depth);
  stepwise.advance(depth);
  EXPECT_EQ(stepwise.levels_done(), 3 * depth);
  EXPECT_EQ(max_abs_diff(once.solution(), stepwise.solution()), 0.0);
}

TEST(Facade, MixedChunksIncludingRemainders) {
  const Grid3 initial = make_initial(12, 12, 12);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 3;  // depth 3
  cfg.pipeline.block = {4, 4, 4};
  JacobiSolver solver(cfg, initial);
  solver.advance(2);  // remainder only
  solver.advance(4);  // 1 sweep + 1 remainder
  solver.advance(6);  // 2 sweeps
  EXPECT_EQ(
      max_abs_diff(solver.solution(), reference_result(initial, 12)), 0.0);
}

TEST(Facade, CompressedVariantViaFacade) {
  const Grid3 initial = make_initial(13, 13, 13);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.scheme = GridScheme::kCompressed;
  cfg.pipeline.block = {4, 4, 4};
  JacobiSolver solver(cfg, initial);
  solver.advance(3 * cfg.pipeline.levels_per_sweep() + 1);  // + remainder
  const int steps = 3 * cfg.pipeline.levels_per_sweep() + 1;
  EXPECT_EQ(
      max_abs_diff(solver.solution(), reference_result(initial, steps)),
      0.0);
}

TEST(Facade, StatsAccumulateAcrossPhases) {
  const Grid3 initial = make_initial(10, 10, 10);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;  // depth 2
  cfg.pipeline.block = {4, 4, 4};
  JacobiSolver solver(cfg, initial);
  const RunStats st = solver.advance(5);  // 2 sweeps + 1 remainder
  EXPECT_EQ(st.levels, 5);
  EXPECT_EQ(st.cell_updates, 5LL * 8 * 8 * 8);
}

// ---- CompressedJacobi direct API --------------------------------------

TEST(Compressed, MarginRoundTrip) {
  PipelineConfig pc;
  pc.teams = 1;
  pc.team_size = 2;
  pc.steps_per_thread = 2;  // S = 4
  pc.scheme = GridScheme::kCompressed;
  pc.block = {4, 4, 4};
  CompressedJacobi solver(pc, 12, 12, 12);
  Grid3 init = make_initial(12, 12, 12);
  solver.load(init);
  EXPECT_EQ(solver.margin(), 4);
  solver.run(1);  // forward: margin -> 0
  EXPECT_EQ(solver.margin(), 0);
  solver.run(1);  // backward: margin -> S
  EXPECT_EQ(solver.margin(), 4);
}

TEST(Compressed, StorageIsAboutHalfOfTwoGrid) {
  PipelineConfig pc;
  pc.teams = 1;
  pc.team_size = 4;
  pc.steps_per_thread = 2;  // S = 8
  pc.scheme = GridScheme::kCompressed;
  pc.block = {16, 16, 16};
  const int n = 64;
  CompressedJacobi solver(pc, n, n, n);
  const double two_grid = 2.0 * Grid3(n, n, n).size() * sizeof(double);
  EXPECT_LT(static_cast<double>(solver.storage_bytes()), 0.75 * two_grid);
}

TEST(Compressed, ShapeMismatchThrows) {
  PipelineConfig pc;
  pc.team_size = 2;
  pc.scheme = GridScheme::kCompressed;
  pc.block = {4, 4, 4};
  CompressedJacobi solver(pc, 10, 10, 10);
  Grid3 wrong(9, 10, 10);
  EXPECT_THROW(solver.load(wrong), std::invalid_argument);
  Grid3 out(11, 10, 10);
  EXPECT_THROW(solver.store(out), std::invalid_argument);
}

TEST(Compressed, RequiresCompressedScheme) {
  PipelineConfig pc;  // defaults to kTwoGrid
  EXPECT_THROW(CompressedJacobi(pc, 10, 10, 10), std::invalid_argument);
  pc.scheme = GridScheme::kCompressed;
  EXPECT_THROW(PipelinedJacobi(pc, 10, 10, 10), std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
