// The SIMD layer's contract (util/simd.hpp):
//
//   1. Every vec<double, W> operation is the elementwise IEEE-754 double
//      operation — bit-identical to the scalar expression per lane, for
//      the intrinsic specializations AND the generic any-width template.
//   2. The vectorized row kernels (core/kernels.hpp) reproduce the scalar
//      cell expression bit for bit on ANY index range, including ranges
//      that start unaligned and end mid-vector (peel + tail lanes).
//   3. The full solver matrix — every operator x every variant, both LBM
//      storages, with streaming stores and software prefetch switched ON —
//      stays bit-identical to the naive scalar reference.
//
// The whole suite is TB_SIMD-parametrized by construction: the CI matrix
// builds it once per ISA choice (including the forced-scalar build) and
// the assertions are identical, so any lane-order, alignment or
// contraction bug in one backend fails that build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "lbm/stencil_op.hpp"
#include "support/grid_test_utils.hpp"
#include "util/simd.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::make_kappa;
namespace simd = tb::util::simd;

[[nodiscard]] std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Deterministic "awkward" doubles: mixed signs, magnitudes spanning many
/// exponents, signed zero — values where rounding differences show.
[[nodiscard]] double probe_value(int i) {
  switch (i % 7) {
    case 0: return 1.0 + 1.0 / (i + 3);
    case 1: return -3.25e-7 * (i + 1);
    case 2: return 1.0e12 + i;
    case 3: return -0.0;
    case 4: return 7.625e-300 * (i + 1);
    case 5: return -(1.0 / 3.0) * i;
    default: return 0.5 * i - 8.0;
  }
}

// ---- vec semantics ----------------------------------------------------

TEST(SimdLayer, BuildConfigurationIsConsistent) {
  EXPECT_EQ(simd::dvec::kWidth, simd::kNativeWidth);
  EXPECT_GE(simd::kNativeWidth, 1);
  EXPECT_EQ(nontemporal_supported(), simd::kHasStream);
  // The cache line holds a whole number of native vectors (the alignment
  // argument every NT peel loop in the kernels relies on).
  EXPECT_EQ(64 % (simd::kNativeWidth * sizeof(double)), 0u);
}

/// Elementwise arithmetic of a vec type vs the scalar double operation,
/// lane for lane, bit for bit.
template <class V>
void check_vec_matches_scalar() {
  constexpr int W = V::kWidth;
  alignas(64) double a[W], b[W], out[W];
  for (int l = 0; l < W; ++l) {
    a[l] = probe_value(l);
    b[l] = probe_value(l + 3) + 1.0e-3;  // avoid 0/0 in the divide check
  }
  const V va = V::load(a), vb = V::load(b);

  (va + vb).store(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l] + b[l]));
  (va - vb).store(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l] - b[l]));
  (va * vb).store(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l] * b[l]));
  (va / vb).store(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l] / b[l]));

  V::broadcast(1.0 / 3.0).store(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(1.0 / 3.0));

  // select_gt_zero must treat -0.0 and +0.0 as NOT greater than zero,
  // exactly like the scalar ternary.
  V::select_gt_zero(va, vb, V::broadcast(-1.0)).store(out);
  for (int l = 0; l < W; ++l)
    EXPECT_EQ(bits(out[l]), bits(a[l] > 0.0 ? b[l] : -1.0)) << "lane " << l;

  // operator[] observes the same lanes the store writes.
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(va[l]), bits(a[l]));

  // Aligned load/store/stream round-trip the exact payload (storage
  // operations never touch the value).
  V::loada(a).storea(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l]));
  V::loada(a).stream(out);
  simd::store_fence();
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits(out[l]), bits(a[l]));
}

TEST(SimdLayer, NativeVecMatchesScalarBitwise) {
  check_vec_matches_scalar<simd::dvec>();
}

TEST(SimdLayer, GenericTemplateMatchesScalarBitwise) {
  // Widths the intrinsic backends never specialize: exercise the
  // reference template directly, including an odd width.
  check_vec_matches_scalar<simd::vec<double, 1>>();
  check_vec_matches_scalar<simd::vec<double, 3>>();
  check_vec_matches_scalar<simd::vec<double, 16>>();
}

// ---- row kernels on awkward ranges ------------------------------------

class RowKernelRanges : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  static constexpr int kRow = 64;  // > 7 native vectors at W=8
};

TEST_P(RowKernelRanges, AllJacobiRowFormsMatchScalar) {
  const auto [i0, i1] = GetParam();
  // One halo cell on each side: the cell expression reads c[i-1]/c[i+1],
  // so the row pointers are base+1 of a kRow+2 allocation — same layout
  // as a Grid3 row with its boundary cells.
  alignas(64) double cb[kRow + 2], jmb[kRow + 2], jpb[kRow + 2],
      kmb[kRow + 2], kpb[kRow + 2];
  for (int i = 0; i < kRow + 2; ++i) {
    cb[i] = probe_value(i);
    jmb[i] = probe_value(i + 11);
    jpb[i] = probe_value(i + 23);
    kmb[i] = probe_value(i + 5);
    kpb[i] = probe_value(i + 17);
  }
  const double *c = cb + 1, *jm = jmb + 1, *jp = jpb + 1, *km = kmb + 1,
               *kp = kpb + 1;
  double expect[kRow];
  for (int i = i0; i < i1; ++i)
    expect[i] = jacobi_cell(c, jm, jp, km, kp, i);

  alignas(64) double dstb[kRow + 2];
  double* dst = dstb + 1;
  auto check = [&](const char* what) {
    for (int i = i0; i < i1; ++i)
      ASSERT_EQ(bits(dst[i]), bits(expect[i]))
          << what << " at i=" << i << " range [" << i0 << "," << i1 << ")";
  };

  jacobi_row(dst, c, jm, jp, km, kp, i0, i1);
  check("forward");
  jacobi_row_nt(dst, c, jm, jp, km, kp, i0, i1);
  nontemporal_fence();
  check("nontemporal");
}

// Ranges chosen to hit every peel/block/tail split at any width up to 8:
// sub-vector, exactly one vector, unaligned starts, prime lengths, and a
// full multi-vector run.
INSTANTIATE_TEST_SUITE_P(
    PeelAndTail, RowKernelRanges,
    ::testing::Values(std::pair{1, 2}, std::pair{1, 8}, std::pair{0, 8},
                      std::pair{3, 11}, std::pair{1, 20}, std::pair{5, 42},
                      std::pair{0, 61}, std::pair{7, 64}, std::pair{2, 37}));

// ---- full-solver bit identity with NT stores and prefetch on ----------

/// Naive scalar oracle for the named operator (same construction as the
/// stencil-matrix suite; the LBM oracle is ALWAYS the two-lattice
/// reference loop, so "lbm:aa" rows pit the AA storage against it).
Grid3 scalar_oracle(const std::string& op, const Grid3& initial,
                    const Grid3& kappa, int steps) {
  Grid3 a = initial.clone(), b = initial.clone();
  if (op == "varcoef") {
    const auto coeffs = std::make_shared<const DiffusionCoefficients>(kappa);
    return reference_solve_op(VarCoefOp{&coeffs}, a, b, steps).clone();
  }
  if (op == "box27") return reference_solve_op(Box27Op{}, a, b, steps).clone();
  if (op == "redblack")
    return reference_solve_op(RedBlackOp{}, a, b, steps).clone();
  if (op == "lbm" || op == "lbm:aa") {
    lbm::LbmState state(
        lbm::Geometry::cavity(initial.nx(), initial.ny(), initial.nz()),
        lbm::LbmConfig{}, initial);
    Grid3 carrier = initial.clone();
    lbm::reference_advance(state, carrier, steps);
    return carrier;
  }
  return reference_solve_op(JacobiOp{}, a, b, steps).clone();
}

struct SimdSweepCase {
  std::string variant;
  std::string op;

  friend std::ostream& operator<<(std::ostream& os, const SimdSweepCase& c) {
    return os << c.variant << "_" << c.op;
  }
};

class SimdSweep : public ::testing::TestWithParam<SimdSweepCase> {};

TEST_P(SimdSweep, BitIdenticalWithStreamingStoresAndPrefetch) {
  const SimdSweepCase c = GetParam();
  // Uneven extents: interior rows of length 19 start at i=1, so at W=8
  // the kernels run their scalar peel, one full vector and a partial
  // tail in every row — the exact lanes a width bug would corrupt.
  const Grid3 initial = make_initial(21, 13, 11);
  const Grid3 kappa = make_kappa(21, 13, 11);

  SolverConfig cfg;
  cfg.baseline.threads = 2;
  cfg.baseline.block = {6, 5, 4};
  cfg.baseline.nontemporal = true;  // engage every op's NT row path
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;  // depth 4
  cfg.pipeline.block = {6, 5, 4};
  cfg.wavefront.threads = 3;          // depth 3
  cfg.lbm_prefetch = 16;  // engage the software-prefetch pull

  // 7 steps: not a multiple of either blocked depth, so the remainder
  // baseline sweeps (the NT users) run inside the blocked variants too.
  const int steps = 7;
  StencilSolver solver = make_solver(c.variant, c.op, cfg, initial, &kappa);
  solver.advance(steps);
  ASSERT_EQ(max_abs_diff(solver.solution(),
                         scalar_oracle(c.op, initial, kappa, steps)),
            0.0)
      << c;
}

std::vector<SimdSweepCase> simd_sweep_matrix() {
  std::vector<SimdSweepCase> cases;
  for (const std::string& v : registered_variants())
    for (const std::string& op : registered_operators())
      cases.push_back({v, op});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FullMatrix, SimdSweep,
                         ::testing::ValuesIn(simd_sweep_matrix()));

}  // namespace
}  // namespace tb::core
