// Unit tests for Grid3 and the row kernels.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/grid.hpp"
#include "core/kernels.hpp"
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

TEST_F(RowKernels, ReverseEqualsForward) {
  Grid3 fwd(n_ + 2, 5, 5), rev(n_ + 2, 5, 5);
  fwd.fill(0.0);
  rev.fill(0.0);
  jacobi_row(fwd.row(2, 2), src_.row(2, 2), src_.row(1, 2), src_.row(3, 2),
             src_.row(2, 1), src_.row(2, 3), 1, n_ + 1);
  jacobi_row_reverse(rev.row(2, 2), src_.row(2, 2), src_.row(1, 2),
                     src_.row(3, 2), src_.row(2, 1), src_.row(2, 3), 1,
                     n_ + 1);
  EXPECT_EQ(max_abs_diff(fwd, rev), 0.0);
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

}  // namespace
}  // namespace tb::core
