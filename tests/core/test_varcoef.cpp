// Tests of the variable-coefficient diffusion stencil on the pipelined
// engine (generality of the scheme beyond constant-coefficient Jacobi).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/norms.hpp"
#include "core/pipeline.hpp"
#include "core/stencil_op.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::core {
namespace {

/// Two-material kappa field: a high-conductivity slab inside background.
Grid3 make_kappa(int n) {
  Grid3 kappa(n, n, n);
  kappa.fill(1.0);
  for (int k = n / 3; k < 2 * n / 3; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) kappa.at(i, j, k) = 50.0;
  return kappa;
}

Grid3 make_initial(int n) {
  Grid3 g(n, n, n);
  g.fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) g.at(0, j, k) = 1.0;  // hot face
  return g;
}

/// The per-face formula, evaluated with the cell first and the
/// neighbour second for each of the six faces: the oracle the shared
/// face fields must reproduce bit for bit.
double harmonic_oracle(double a, double b) {
  return (a > 0 && b > 0) ? 2.0 * a * b / (a + b) : 0.0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Varied kappa with zero and negative entries; `scale` (if nonzero)
/// multiplies every cell by 2^scale, `mixed` alternates 2^300 and 2^-300
/// cell by cell so every face pairs extreme magnitudes.
Grid3 make_hostile_kappa(int nx, int ny, int nz, int scale, bool mixed) {
  Grid3 kappa(nx, ny, nz);
  fill_test_pattern(kappa);  // >= -1.25
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        double& v = kappa.at(i, j, k);
        v += 1.0;  // mostly positive, some negative
        if ((i + 2 * j + 3 * k) % 7 == 0) v = 0.0;
        if (mixed) v = std::ldexp(v, (i + j + k) % 2 == 0 ? 300 : -300);
        if (scale != 0) v = std::ldexp(v, scale);
      }
  return kappa;
}

TEST(VarCoef, FaceRowsMatchPerCellHarmonicBitwise) {
  struct Shape {
    int nx, ny, nz;
  };
  const Shape shapes[] = {{9, 7, 5}, {13, 6, 11}, {5, 12, 8}, {17, 3, 4}};
  struct Field {
    int scale;
    bool mixed;
  };
  const Field fields[] = {{0, false}, {300, false}, {-300, false},
                          {0, true}};
  long long checked = 0;
  for (const Shape& s : shapes)
    for (const Field& fd : fields) {
      const Grid3 kappa =
          make_hostile_kappa(s.nx, s.ny, s.nz, fd.scale, fd.mixed);
      for (const int threads : {1, 3, 4}) {
        const DiffusionCoefficients coeffs(kappa, threads);
        for (int k = 1; k < s.nz - 1; ++k)
          for (int j = 1; j < s.ny - 1; ++j) {
            // The six pointers VarCoefOp::row reads for this row.
            const DiffusionCoefficients::FaceRows f = coeffs.rows(j, k);
            for (int i = 1; i < s.nx - 1; ++i) {
              const double kc = kappa.at(i, j, k);
              const double got[6] = {f.xm[i], f.xp[i], f.ym[i],
                                     f.yp[i], f.zm[i], f.zp[i]};
              const double want[6] = {
                  harmonic_oracle(kc, kappa.at(i - 1, j, k)),
                  harmonic_oracle(kc, kappa.at(i + 1, j, k)),
                  harmonic_oracle(kc, kappa.at(i, j - 1, k)),
                  harmonic_oracle(kc, kappa.at(i, j + 1, k)),
                  harmonic_oracle(kc, kappa.at(i, j, k - 1)),
                  harmonic_oracle(kc, kappa.at(i, j, k + 1))};
              for (int face = 0; face < 6; ++face) {
                ASSERT_TRUE(same_bits(got[face], want[face]))
                    << "face " << face << " at (" << i << "," << j << ","
                    << k << ") shape " << s.nx << "x" << s.ny << "x"
                    << s.nz << " scale " << fd.scale << " mixed "
                    << fd.mixed << " threads " << threads << ": "
                    << got[face] << " vs " << want[face];
                ++checked;
              }
            }
          }
      }
    }
  // Every shape has interior cells; the sweep is not vacuous.
  EXPECT_GT(checked, 10000);
}

TEST(VarCoef, FaceCoefficientsIndependentOfThreadCount) {
  // A varied positive field; its 10 filled z-planes do not split evenly
  // over 4 threads (nor over 3, in the bitwise test above).
  Grid3 kappa(21, 13, 11);
  fill_test_pattern(kappa);  // >= -1.25
  for (int k = 0; k < kappa.nz(); ++k)
    for (int j = 0; j < kappa.ny(); ++j)
      for (int i = 0; i < kappa.nx(); ++i) kappa.at(i, j, k) += 2.0;
  const DiffusionCoefficients one(kappa, 1);
  const DiffusionCoefficients four(kappa, 4);
  // The six rows of every interior row reach every stored face.
  for (int k = 1; k < kappa.nz() - 1; ++k)
    for (int j = 1; j < kappa.ny() - 1; ++j) {
      const auto a = one.rows(j, k), b = four.rows(j, k);
      const double* ra[6] = {a.xm, a.xp, a.ym, a.yp, a.zm, a.zp};
      const double* rb[6] = {b.xm, b.xp, b.ym, b.yp, b.zm, b.zp};
      for (int face = 0; face < 6; ++face)
        for (int i = 1; i < kappa.nx() - 1; ++i)
          ASSERT_TRUE(same_bits(ra[face][i], rb[face][i]))
              << "face " << face << " at (" << i << "," << j << "," << k
              << ")";
    }
}

TEST(VarCoef, StoresThreeFaceFields) {
  // One field per axis: constructing the coefficients allocates exactly
  // three grids of the kappa shape, and nothing else.
  const int n = 24;
  const Grid3 kappa = make_kappa(n);
  const std::uint64_t probe0 = util::buffer_bytes_in_use();
  const Grid3 probe(n, n, n);
  const std::uint64_t grid_bytes = util::buffer_bytes_in_use() - probe0;
  ASSERT_GT(grid_bytes, 0u);
  const std::uint64_t allocs0 = util::buffer_alloc_count();
  const std::uint64_t bytes0 = util::buffer_bytes_in_use();
  const DiffusionCoefficients coeffs(kappa);
  EXPECT_EQ(util::buffer_alloc_count() - allocs0, 3u);
  EXPECT_EQ(util::buffer_bytes_in_use() - bytes0, 3 * grid_bytes);
}

TEST(VarCoef, UniformKappaReducesToJacobi) {
  const int n = 12;
  Grid3 kappa(n, n, n);
  kappa.fill(3.0);  // any uniform value: all face coefficients equal
  const auto c = std::make_shared<const DiffusionCoefficients>(kappa);
  Grid3 u = make_initial(n);
  Grid3 j1 = u.clone(), j2 = u.clone();

  Box all;
  all.lo = {1, 1, 1};
  all.hi = {n - 1, n - 1, n - 1};
  apply_box(VarCoefOp{&c}, u, j1, all, 0);
  // Jacobi: arithmetic mean of the six neighbours.
  for (int k = 1; k < n - 1; ++k)
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i)
        j2.at(i, j, k) =
            (u.at(i - 1, j, k) + u.at(i + 1, j, k) + u.at(i, j - 1, k) +
             u.at(i, j + 1, k) + u.at(i, j, k - 1) + u.at(i, j, k + 1)) /
            6.0;
  EXPECT_LT(linf_diff(j1, j2), 1e-15);
}

struct VcCase {
  int teams, t, T;
  SyncMode sync;
};

class VarCoefEquivalence : public ::testing::TestWithParam<VcCase> {};

TEST_P(VarCoefEquivalence, PipelinedMatchesReference) {
  const VcCase c = GetParam();
  const int n = 16;
  PipelineConfig pc;
  pc.teams = c.teams;
  pc.team_size = c.t;
  pc.steps_per_thread = c.T;
  pc.sync = c.sync;
  pc.block = {5, 4, 3};
  pc.du = 3;

  const auto coeffs =
      std::make_shared<const DiffusionCoefficients>(make_kappa(n));
  PipelinedSolver<VarCoefOp> solver(pc, n, n, n, VarCoefOp{&coeffs});

  const Grid3 initial = make_initial(n);
  Grid3 pa = initial.clone(), pb = initial.clone();
  Grid3 ra = initial.clone(), rb = initial.clone();
  const int sweeps = 2;
  solver.run(pa, pb, sweeps);
  const int steps = sweeps * pc.levels_per_sweep();
  Grid3& got = solver.result(pa, pb, sweeps);
  Grid3& want = reference_solve_op(VarCoefOp{&coeffs}, ra, rb, steps);
  EXPECT_EQ(max_abs_diff(got, want), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VarCoefEquivalence,
    ::testing::Values(VcCase{1, 2, 1, SyncMode::kRelaxed},
                      VcCase{1, 4, 2, SyncMode::kRelaxed},
                      VcCase{2, 2, 1, SyncMode::kRelaxed},
                      VcCase{2, 2, 2, SyncMode::kBarrier}));

TEST(VarCoef, ConductiveSlabCarriesMoreHeatInward) {
  // Physics sanity: versus a uniform medium, the high-kappa slab conducts
  // more heat from the hot face deep into the domain — the temperature
  // far from the hot face, at slab height, must be higher.
  const int n = 20;
  const int sweeps = 100;
  auto solve_with = [&](const Grid3& kappa) {
    PipelineConfig pc;
    pc.teams = 1;
    pc.team_size = 2;
    pc.block = {n, 6, 6};
    const auto coeffs = std::make_shared<const DiffusionCoefficients>(kappa);
    PipelinedSolver<VarCoefOp> solver(pc, n, n, n, VarCoefOp{&coeffs});
    const Grid3 initial = make_initial(n);
    Grid3 a = initial.clone(), b = initial.clone();
    solver.run(a, b, sweeps);
    return solver.result(a, b, sweeps).at(3 * n / 4, n / 2, n / 2);
  };
  Grid3 uniform(n, n, n);
  uniform.fill(1.0);
  const double t_uniform = solve_with(uniform);
  const double t_slab = solve_with(make_kappa(n));
  EXPECT_GT(t_slab, 1.5 * t_uniform);
}

TEST(VarCoef, RejectsCompressedScheme) {
  PipelineConfig pc;
  pc.scheme = GridScheme::kCompressed;
  Grid3 kappa(8, 8, 8);
  kappa.fill(1.0);
  const auto coeffs = std::make_shared<const DiffusionCoefficients>(kappa);
  EXPECT_THROW(PipelinedSolver<VarCoefOp>(pc, 8, 8, 8, VarCoefOp{&coeffs}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
