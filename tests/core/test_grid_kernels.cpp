// Unit tests for Grid3, the row kernels and Box27Op's in-place rows.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "core/stencil_op.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::core {
namespace {

TEST(Grid3, ShapeAndPadding) {
  Grid3 g(10, 5, 7);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 5);
  EXPECT_EQ(g.nz(), 7);
  EXPECT_GE(g.stride_x(), 10);
  EXPECT_EQ(g.stride_x() % 8, 0);  // rows padded to full cache lines
  EXPECT_EQ(g.stride_z(), static_cast<std::size_t>(g.stride_x()) * 5);
  EXPECT_EQ(g.payload_bytes(), 10u * 5 * 7 * sizeof(double));
}

TEST(Grid3, RowsAreAligned) {
  Grid3 g(13, 4, 4);  // deliberately non-multiple-of-8 extent
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.row(j, k)) % 64, 0u);
}

TEST(Grid3, IndexingIsXFastest) {
  Grid3 g(4, 4, 4);
  EXPECT_EQ(g.index(1, 0, 0), 1u);
  EXPECT_EQ(g.index(0, 1, 0), static_cast<std::size_t>(g.stride_x()));
  EXPECT_EQ(g.index(0, 0, 1), g.stride_z());
}

TEST(Grid3, AtReadsWhatWasWritten) {
  Grid3 g(5, 6, 7);
  g.fill(0.0);
  g.at(4, 5, 6) = 3.25;
  g.at(0, 0, 0) = -1.0;
  EXPECT_EQ(g.at(4, 5, 6), 3.25);
  EXPECT_EQ(g.at(0, 0, 0), -1.0);
}

TEST(Grid3, RejectsBadExtents) {
  EXPECT_THROW(Grid3(0, 4, 4), std::invalid_argument);
  EXPECT_THROW(Grid3(4, -1, 4), std::invalid_argument);
}

TEST(Grid3, RejectsExtentsThatOverflowTheAllocation) {
  // 2^21 cubed is 2^63 elements, whose byte count wraps a 64-bit size_t
  // to 0: unchecked, this "succeeds" over a zero-byte allocation.
  EXPECT_THROW(Grid3(2097152, 2097152, 2097152), std::invalid_argument);
  // Padding the row to a cache line overflows the int row pitch.
  EXPECT_THROW(Grid3(std::numeric_limits<int>::max(), 1, 1),
               std::invalid_argument);
}

TEST(Grid3, CloneIsDeepAndEqual) {
  Grid3 g(6, 5, 4);
  fill_test_pattern(g);
  Grid3 c = g.clone();
  EXPECT_EQ(max_abs_diff(g, c), 0.0);
  c.at(1, 1, 1) += 1.0;
  EXPECT_GT(max_abs_diff(g, c), 0.0);
}

TEST(Grid3, MaxAbsDiffShapeMismatchIsInfinite) {
  Grid3 a(4, 4, 4), b(4, 4, 5);
  EXPECT_TRUE(std::isinf(max_abs_diff(a, b)));
}

TEST(Grid3, TestPatternIsDeterministicAndNonTrivial) {
  Grid3 a(8, 8, 8), b(8, 8, 8);
  fill_test_pattern(a);
  fill_test_pattern(b);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  // Not constant along any axis (catches transposed-axis bugs).
  EXPECT_NE(a.at(1, 2, 3), a.at(2, 2, 3));
  EXPECT_NE(a.at(1, 2, 3), a.at(1, 3, 3));
  EXPECT_NE(a.at(1, 2, 3), a.at(1, 2, 4));
}

TEST(Grid3, TestPatternMatchesPerCellFormulaBitwise) {
  for (const auto& [nx, ny, nz] :
       {std::array{21, 13, 11}, std::array{64, 64, 64}})
    for (const double scale : {1.0, 1.75}) {
      Grid3 tabulated(nx, ny, nz), per_cell(nx, ny, nz);
      fill_test_pattern(tabulated, scale);
      tb::test::fill_test_pattern_oracle(per_cell, scale);
      tb::test::expect_grids_bitwise_equal(tabulated, per_cell);
    }
}

// ---- row kernels ----------------------------------------------------

class RowKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    src_ = Grid3(n_ + 2, 5, 5);
    dst_ = Grid3(n_ + 2, 5, 5);
    fill_test_pattern(src_);
    dst_.fill(0.0);
  }

  double expected(int i) const {
    return kSixth * (src_.at(i - 1, 2, 2) + src_.at(i + 1, 2, 2) +
                     src_.at(i, 1, 2) + src_.at(i, 3, 2) +
                     src_.at(i, 2, 1) + src_.at(i, 2, 3));
  }

  const int n_ = 37;
  Grid3 src_, dst_;
};

TEST_F(RowKernels, ForwardMatchesFormula) {
  jacobi_row(dst_.row(2, 2), src_.row(2, 2), src_.row(1, 2), src_.row(3, 2),
             src_.row(2, 1), src_.row(2, 3), 1, n_ + 1);
  for (int i = 1; i <= n_; ++i) EXPECT_EQ(dst_.at(i, 2, 2), expected(i));
}

TEST_F(RowKernels, NontemporalEqualsRegular) {
  Grid3 nt(n_ + 2, 5, 5);
  nt.fill(0.0);
  jacobi_row(dst_.row(2, 2), src_.row(2, 2), src_.row(1, 2), src_.row(3, 2),
             src_.row(2, 1), src_.row(2, 3), 1, n_ + 1);
  jacobi_row_nt(nt.row(2, 2), src_.row(2, 2), src_.row(1, 2), src_.row(3, 2),
                src_.row(2, 1), src_.row(2, 3), 1, n_ + 1);
  nontemporal_fence();
  EXPECT_EQ(max_abs_diff(dst_, nt), 0.0);
}

TEST_F(RowKernels, NontemporalHandlesUnalignedRanges) {
  for (int i0 : {1, 2, 3}) {
    for (int i1 : {i0 + 1, i0 + 2, i0 + 7, n_ + 1}) {
      Grid3 a(n_ + 2, 5, 5), b(n_ + 2, 5, 5);
      a.fill(0.0);
      b.fill(0.0);
      jacobi_row(a.row(2, 2), src_.row(2, 2), src_.row(1, 2), src_.row(3, 2),
                 src_.row(2, 1), src_.row(2, 3), i0, i1);
      jacobi_row_nt(b.row(2, 2), src_.row(2, 2), src_.row(1, 2),
                    src_.row(3, 2), src_.row(2, 1), src_.row(2, 3), i0, i1);
      nontemporal_fence();
      EXPECT_EQ(max_abs_diff(a, b), 0.0) << i0 << " " << i1;
    }
  }
}

// ---- Box27Op in one allocation ---------------------------------------
//
// The compressed grid stores row (j, k) of a new level over the source row
// (j+1, k+1) shifted by +1 (backward sweeps) resp. (j-1, k-1) shifted by
// -1 (forward sweeps).  Box27Op reads that row as its kpjp resp. kmjm
// corner row, so its row() must order its cells around the alias.

/// Runs Box27Op::row for row (2, 2) with dst placed `dj` rows, `dk`
/// planes and `di` cells away in the same grid, and checks cells
/// [i0, i1) bit for bit against Box27Op::cell on an untouched copy.
void expect_box27_alias_exact(int dj, int dk, int di, int i0, int i1) {
  Grid3 g(24, 5, 5);
  fill_test_pattern(g);
  const Grid3 ref = g.clone();
  const int j = 2, k = 2;
  std::vector<double> want(static_cast<std::size_t>(i1));
  for (int i = i0; i < i1; ++i)
    want[static_cast<std::size_t>(i)] = Box27Op::cell(
        ref.row(j, k), ref.row(j - 1, k), ref.row(j + 1, k),
        ref.row(j, k - 1), ref.row(j, k + 1), ref.row(j - 1, k - 1),
        ref.row(j + 1, k - 1), ref.row(j - 1, k + 1), ref.row(j + 1, k + 1),
        i);
  double* dst = g.row(j + dj, k + dk) + di;
  Box27Op{}.row(dst, g.row(j, k), g.row(j - 1, k), g.row(j + 1, k),
                g.row(j, k - 1), g.row(j, k + 1), 1, j, k, i0, i1);
  EXPECT_EQ(std::memcmp(dst + i0, want.data() + i0,
                        static_cast<std::size_t>(i1 - i0) * sizeof(double)),
            0)
      << "dst = row(" << j + dj << ", " << k + dk << ") + " << di
      << ", cells [" << i0 << ", " << i1 << ")";
}

// Tail only, whole vector blocks, and blocks plus a tail at vector
// widths 2 to 8; cells stay inside the row for both shifts.
constexpr std::array<std::pair<int, int>, 5> kAliasRanges{
    {{1, 2}, {1, 9}, {2, 13}, {1, 22}, {3, 20}}};

TEST(Box27Alias, BackwardSweepAliasMatchesCopy) {
  for (const auto& [i0, i1] : kAliasRanges)
    expect_box27_alias_exact(+1, +1, +1, i0, i1);  // dst == kpjp + 1
}

TEST(Box27Alias, ForwardSweepAliasMatchesCopy) {
  for (const auto& [i0, i1] : kAliasRanges)
    expect_box27_alias_exact(-1, -1, -1, i0, i1);  // dst == kmjm - 1
}

}  // namespace
}  // namespace tb::core
