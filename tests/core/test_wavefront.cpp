// Tests of the wavefront comparator (Ref. [2]): the plane-block preset of
// the pipelined scheme, driven through the registry facade.
#include <gtest/gtest.h>

#include <ostream>

#include "support/grid_test_utils.hpp"
#include "core/registry.hpp"
#include "perfmodel/wavefront_model.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;

struct WaveCase {
  int threads;
  std::array<int, 3> grid;
  int sweeps;

  friend std::ostream& operator<<(std::ostream& os, const WaveCase& c) {
    return os << "t" << c.threads << "_g" << c.grid[0] << "x" << c.grid[1]
              << "x" << c.grid[2] << "_s" << c.sweeps;
  }
};

class Wavefront : public ::testing::TestWithParam<WaveCase> {};

TEST_P(Wavefront, BitIdenticalToReference) {
  const WaveCase c = GetParam();
  const Grid3 initial = make_initial(c.grid[0], c.grid[1], c.grid[2]);

  SolverConfig cfg;
  cfg.wavefront.threads = c.threads;
  StencilSolver solver = make_solver("wavefront", "jacobi", cfg, initial);
  solver.advance(c.sweeps * c.threads);
  EXPECT_EQ(max_abs_diff(solver.solution(),
                         tb::test::reference_result(initial,
                                                    c.sweeps * c.threads)),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Wavefront,
    ::testing::Values(WaveCase{1, {12, 12, 12}, 3},
                      WaveCase{2, {14, 12, 16}, 2},
                      WaveCase{3, {16, 10, 18}, 2},
                      WaveCase{4, {12, 18, 20}, 1},
                      // Wave deeper than the plane count: heavy clipping.
                      WaveCase{6, {10, 10, 6}, 2},
                      WaveCase{2, {12, 12, 12}, 2}));

TEST(Wavefront, RejectsBadConfig) {
  const Grid3 initial = make_initial(8, 8, 8);
  SolverConfig cfg;
  cfg.wavefront.threads = 0;
  EXPECT_THROW(make_solver("wavefront", "jacobi", cfg, initial),
               std::invalid_argument);
}

TEST(Wavefront, PresetKeepsOneBlockPerPlane) {
  // The preset's blocks must cover every level-skewed window of a plane,
  // or the pipeline tiles the plane and stops being a wavefront.
  for (int t : {1, 4, 6}) {
    for (const std::array<int, 3>& g :
         {std::array<int, 3>{10, 10, 6}, std::array<int, 3>{17, 33, 9}}) {
      WavefrontConfig wf;
      wf.threads = t;
      const PipelineConfig preset = wf.pipeline(g[0], g[1]);
      const BlockPlan plan(preset.block,
                           interior_clips(g[0], g[1], g[2], t));
      EXPECT_EQ(plan.nb(0), 1) << "t=" << t;
      EXPECT_EQ(plan.nb(1), 1) << "t=" << t;
      EXPECT_EQ(preset.levels_per_sweep(), t);
    }
  }
}

TEST(WavefrontModel, CapacityCrossover) {
  const topo::MachineSpec m = topo::nehalem_ep_socket();
  // 600^2 planes (2.9 MiB) cannot host a 4-deep wave in 8 MiB L3; small
  // planes can.
  EXPECT_FALSE(perfmodel::wavefront_fits(m, 600, 600, 4));
  EXPECT_TRUE(perfmodel::wavefront_fits(m, 150, 150, 4));
  EXPECT_EQ(perfmodel::max_wavefront_depth(m, 600, 600), 0);
  EXPECT_GE(perfmodel::max_wavefront_depth(m, 150, 150), 4);
}

TEST(WavefrontModel, SpilledWaveLosesTheSpeedup) {
  const topo::MachineSpec m = topo::nehalem_ep_socket();
  const double fits = perfmodel::wavefront_lups_socket(m, 150, 150, 4);
  const double spills = perfmodel::wavefront_lups_socket(m, 600, 600, 4);
  EXPECT_GT(fits, perfmodel::baseline_lups_socket(m));
  EXPECT_LT(spills, perfmodel::baseline_lups_socket(m));
}

}  // namespace
}  // namespace tb::core
