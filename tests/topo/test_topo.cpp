// Unit tests for the topology substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/grid.hpp"
#include "topo/machine.hpp"
#include "topo/placement.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::topo {
namespace {

TEST(MachineSpec, NehalemValuesMatchPaper) {
  const MachineSpec m = nehalem_ep();
  EXPECT_EQ(m.sockets, 2);
  EXPECT_EQ(m.cores_per_socket, 4);
  EXPECT_EQ(m.total_cores(), 8);
  EXPECT_DOUBLE_EQ(m.mem_bw_socket, 18.5e9);   // Ms
  EXPECT_DOUBLE_EQ(m.mem_bw_single, 10.0e9);   // Ms,1
  EXPECT_DOUBLE_EQ(m.cache_bw / m.mem_bw_single, 8.0);  // Mc/Ms,1 ~ 8
  EXPECT_EQ(m.shared_cache_bytes, 8u << 20);
  EXPECT_DOUBLE_EQ(m.mem_bw_node(), 37.0e9);
  EXPECT_NO_THROW(m.validate());
}

TEST(MachineSpec, SocketVariant) {
  const MachineSpec m = nehalem_ep_socket();
  EXPECT_EQ(m.sockets, 1);
  EXPECT_EQ(m.total_cores(), 4);
}

TEST(MachineSpec, BandwidthScalableHasScalingBus) {
  const MachineSpec m = bandwidth_scalable();
  EXPECT_DOUBLE_EQ(m.mem_bw_socket / m.mem_bw_single,
                   static_cast<double>(m.cores_per_socket));
}

TEST(MachineSpec, Core2LikeIsBandwidthStarved) {
  const MachineSpec m = core2_like();
  // One core nearly saturates the bus: Ms/Ms,1 close to 1.
  EXPECT_LT(m.mem_bw_socket / m.mem_bw_single, 1.2);
}

TEST(MachineSpec, BarrierCostGrowsWithThreads) {
  const MachineSpec m = nehalem_ep();
  EXPECT_GT(m.barrier_seconds(8), m.barrier_seconds(2));
  EXPECT_GT(m.barrier_seconds(1), 0.0);
}

TEST(MachineSpec, ValidateRejectsNonsense) {
  MachineSpec m = nehalem_ep();
  m.sockets = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = nehalem_ep();
  m.mem_bw_socket = -1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = nehalem_ep();
  m.shared_cache_bytes = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Placement, ToString) {
  EXPECT_STREQ(to_string(PagePlacement::kFirstTouch), "first-touch");
  EXPECT_STREQ(to_string(PagePlacement::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(PagePlacement::kSerial), "serial");
}

class TouchPages : public ::testing::TestWithParam<PagePlacement> {};

TEST_P(TouchPages, ZeroesEverything) {
  const std::size_t n = 3 * util::kPageBytes / sizeof(double) + 17;
  std::vector<double> data(n, -1.0);
  touch_pages({data.data()}, n, GetParam(), 3);
  for (double x : data) EXPECT_EQ(x, 0.0);
}

TEST_P(TouchPages, HandlesEmptyAndTiny) {
  touch_pages({nullptr}, 0, GetParam(), 2);  // must not crash
  std::vector<double> one(1, -1.0);
  touch_pages({one.data()}, 1, GetParam(), 4);
  EXPECT_EQ(one[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, TouchPages,
                         ::testing::Values(PagePlacement::kFirstTouch,
                                           PagePlacement::kRoundRobin,
                                           PagePlacement::kSerial));

class TouchPagesCopy
    : public ::testing::TestWithParam<std::tuple<PagePlacement, int>> {};

// nx = 21 pads each row to 24 elements while a page holds 512, so page
// boundaries cut rows inside the payload and inside the padding.
TEST_P(TouchPagesCopy, MatchesPerCellCopyWithZeroPadding) {
  const auto [policy, threads] = GetParam();
  core::Grid3 src(21, 13, 11);
  src.fill(std::numeric_limits<double>::quiet_NaN());  // garbage padding
  core::Grid3 want(21, 13, 11);
  want.fill(0.0);
  for (int k = 0; k < src.nz(); ++k)
    for (int j = 0; j < src.ny(); ++j)
      for (int i = 0; i < src.nx(); ++i) {
        src.at(i, j, k) = 0.5 + i + 100.0 * j + 1.0e4 * k;
        want.at(i, j, k) = src.at(i, j, k);
      }

  core::Grid3 a(21, 13, 11), b(21, 13, 11);
  a.fill(-1.0);
  b.fill(-2.0);
  touch_pages({a.data(), b.data()}, a.size(), policy, threads,
              core::window_source(src, src));
  const std::size_t bytes = want.size() * sizeof(double);
  EXPECT_EQ(std::memcmp(a.data(), want.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(b.data(), want.data(), bytes), 0);
}

// A pair of at least util::kHugePageAdviceBytes is split at 2 MiB
// boundaries.  The two destinations sit at different offsets in their
// huge pages (neither on a 4 KiB boundary), so their page splits differ
// and every row crosses page boundaries at different elements in each.
TEST_P(TouchPagesCopy, LargePairAtDifferentHugePageOffsets) {
  const auto [policy, threads] = GetParam();
  core::Grid3 src(253, 128, 130);  // rows padded to 256 elements
  ASSERT_GE(src.size() * sizeof(double), util::kHugePageAdviceBytes);
  src.fill(std::numeric_limits<double>::quiet_NaN());
  core::Grid3 want(253, 128, 130);
  want.fill(0.0);
  for (int k = 0; k < src.nz(); ++k)
    for (int j = 0; j < src.ny(); ++j)
      for (int i = 0; i < src.nx(); ++i) {
        src.at(i, j, k) = 0.25 + i + 1.0e3 * j + 1.0e6 * k;
        want.at(i, j, k) = src.at(i, j, k);
      }

  // A pointer into `buf` whose address is `offset` mod 2 MiB.
  const std::size_t huge_elems = util::kHugePageBytes / sizeof(double);
  const auto at_offset = [&](util::AlignedBuffer<double>& buf,
                             std::size_t offset) {
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    const std::size_t shift =
        (offset + util::kHugePageBytes - addr % util::kHugePageBytes) %
        util::kHugePageBytes;
    return buf.data() + shift / sizeof(double);
  };
  util::AlignedBuffer<double> a_buf(src.size() + huge_elems),
      b_buf(src.size() + huge_elems);
  double* a = at_offset(a_buf, 64);
  double* b = at_offset(b_buf, (std::size_t{1} << 20) + 4096 + 24);
  std::fill(a, a + src.size(), -1.0);
  std::fill(b, b + src.size(), -2.0);
  touch_pages({a, b}, src.size(), policy, threads,
              core::window_source(src, src));
  const std::size_t bytes = want.size() * sizeof(double);
  EXPECT_EQ(std::memcmp(a, want.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(b, want.data(), bytes), 0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByThreads, TouchPagesCopy,
    ::testing::Combine(::testing::Values(PagePlacement::kFirstTouch,
                                         PagePlacement::kRoundRobin,
                                         PagePlacement::kSerial),
                       ::testing::Values(1, 3, 4)));

// Windows of a 13 x 11 x 9 source (rows padded to 16) cut into
// destinations of other extents and row pitch (24 and 8), at origins
// offset along each axis, negative ones included, and windows larger
// than the source that leave it on both sides of an axis or lie wholly
// outside it.  The reference is the per-cell copy with zero outside the
// source and in the padding.
class TouchPagesWindow
    : public ::testing::TestWithParam<std::tuple<PagePlacement, int>> {};

TEST_P(TouchPagesWindow, MatchesPerCellWindowWithZeroOutside) {
  const auto [policy, threads] = GetParam();
  core::Grid3 src(13, 11, 9);
  src.fill(std::numeric_limits<double>::quiet_NaN());  // garbage padding
  for (int k = 0; k < src.nz(); ++k)
    for (int j = 0; j < src.ny(); ++j)
      for (int i = 0; i < src.nx(); ++i)
        src.at(i, j, k) = 0.5 + i + 100.0 * j + 1.0e4 * k;

  using Vec = std::array<int, 3>;
  const Vec shapes[] = {{21, 15, 12}, {5, 7, 4}};
  const Vec origins[] = {{0, 0, 0},    {2, 0, 0},   {0, 3, 0},
                         {0, 0, 4},    {-3, 0, 0},  {0, -2, 0},
                         {0, 0, -5},   {-4, -2, -2}, {9, 6, 7},
                         {-1, 8, -3},  {20, 0, 0},  {0, 0, -30}};
  for (const Vec& n : shapes)
    for (const Vec& o : origins) {
      SCOPED_TRACE(::testing::Message()
                   << "shape " << n[0] << "x" << n[1] << "x" << n[2]
                   << " origin " << o[0] << "," << o[1] << "," << o[2]);
      core::Grid3 want(n[0], n[1], n[2]);
      want.fill(0.0);
      for (int k = 0; k < n[2]; ++k)
        for (int j = 0; j < n[1]; ++j)
          for (int i = 0; i < n[0]; ++i) {
            const int si = i + o[0], sj = j + o[1], sk = k + o[2];
            if (si >= 0 && si < src.nx() && sj >= 0 && sj < src.ny() &&
                sk >= 0 && sk < src.nz())
              want.at(i, j, k) = src.at(si, sj, sk);
          }

      core::Grid3 a(n[0], n[1], n[2]), b(n[0], n[1], n[2]);
      ASSERT_NE(a.stride_x(), src.stride_x());
      a.fill(-1.0);
      b.fill(-2.0);
      touch_pages({a.data(), b.data()}, a.size(), policy, threads,
                  core::window_source(src, a, o));
      const std::size_t bytes = want.size() * sizeof(double);
      EXPECT_EQ(std::memcmp(a.data(), want.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(b.data(), want.data(), bytes), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesByThreads, TouchPagesWindow,
    ::testing::Combine(::testing::Values(PagePlacement::kFirstTouch,
                                         PagePlacement::kRoundRobin,
                                         PagePlacement::kSerial),
                       ::testing::Values(1, 2, 3, 5)));

TEST(TouchPagesSource, RejectsMalformedRows) {
  std::vector<double> src(64, 1.0), dst(64);
  EXPECT_THROW(touch_pages({dst.data()}, 8, PagePlacement::kSerial, 1,
                           {src.data(), 4, 0}),
               std::invalid_argument);
  EXPECT_THROW(touch_pages({dst.data()}, 8, PagePlacement::kSerial, 1,
                           {src.data(), 5, 4}),
               std::invalid_argument);
  PageSource window{src.data(), 4, 8, 2};
  window.extent = {8, 2, 4};
  window.pitch = 8;
  EXPECT_NO_THROW(touch_pages({dst.data()}, 64, PagePlacement::kSerial, 1,
                              window));
  window.pitch = 7;  // source rows overlap
  EXPECT_THROW(touch_pages({dst.data()}, 64, PagePlacement::kSerial, 1,
                           window),
               std::invalid_argument);
  window.pitch = 8;
  window.height = 0;  // no rows per plane
  EXPECT_THROW(touch_pages({dst.data()}, 64, PagePlacement::kSerial, 1,
                           window),
               std::invalid_argument);
}

// Bases at several offsets mod 4 KiB and mod 2 MiB, each split at both
// page sizes: the pages are the address-aligned pieces of [0, count), and
// every page has exactly one first writer under every policy.
TEST(SplitPages, AddressAlignedPagesWithOneWriterEach) {
  const std::uintptr_t region = std::uintptr_t{1} << 40;  // 2 MiB-aligned
  for (const std::size_t page_bytes : {util::kPageBytes, util::kHugePageBytes})
    for (const std::uintptr_t offset :
         {std::uintptr_t{0}, std::uintptr_t{8}, std::uintptr_t{64},
          std::uintptr_t{4096 - 8}, std::uintptr_t{4096 + 64},
          std::uintptr_t{1} << 20, (std::uintptr_t{2} << 20) - 64})
      for (const std::size_t count :
           {std::size_t{1}, std::size_t{511}, std::size_t{512},
            std::size_t{3 * 512 + 17}, std::size_t{3 * 262144 + 5}}) {
        SCOPED_TRACE(::testing::Message() << "page " << page_bytes
                                          << " offset " << offset
                                          << " count " << count);
        const std::uintptr_t base = region + offset;
        const PageSplit split = split_pages(base, count, page_bytes);
        const std::size_t pages = split.pages();
        ASSERT_GE(pages, 1u);
        EXPECT_EQ(split.begin(0), 0u);
        EXPECT_EQ(split.end(pages - 1), count);
        for (std::size_t u = 0; u < pages; ++u) {
          ASSERT_LT(split.begin(u), split.end(u)) << "page " << u;
          if (u > 0) {
            EXPECT_EQ(split.begin(u), split.end(u - 1));
            EXPECT_EQ((base + split.begin(u) * sizeof(double)) % page_bytes,
                      0u)
                << "page " << u << " does not start on a page boundary";
          }
          // The last element of page u lies in the same real page.
          EXPECT_EQ((base + split.begin(u) * sizeof(double)) / page_bytes,
                    (base + (split.end(u) - 1) * sizeof(double)) / page_bytes)
              << "page " << u;
        }

        for (const PagePlacement policy :
             {PagePlacement::kFirstTouch, PagePlacement::kRoundRobin,
              PagePlacement::kSerial})
          for (const int writers : {1, 3, 4}) {
            std::vector<int> owner(pages, -1);
            for (int t = 0; t < writers; ++t)
              for_each_owned_page(split, policy, t, writers,
                                  [&](std::size_t u) {
                                    ASSERT_LT(u, pages);
                                    EXPECT_EQ(owner[u], -1) << "page " << u;
                                    owner[u] = t;
                                  });
            for (std::size_t u = 0; u < pages; ++u) {
              ASSERT_NE(owner[u], -1) << "page " << u << " never written";
              if (policy == PagePlacement::kRoundRobin) {
                EXPECT_EQ(owner[u], static_cast<int>(u % writers));
              } else if (policy == PagePlacement::kSerial) {
                EXPECT_EQ(owner[u], 0);
              } else if (u > 0) {  // first-touch: one contiguous run each
                EXPECT_GE(owner[u], owner[u - 1]);
              }
            }
          }
      }
}

}  // namespace
}  // namespace tb::topo
