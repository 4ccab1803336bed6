// Padded, cache-line-aligned 3-D grid of doubles.
//
// Layout: x contiguous (unit stride, the vectorized inner loop), then y,
// then z — matching the paper's bx/by/bz blocking convention.  The x extent
// is padded to a full cache line so every row starts aligned, which both
// helps vectorization and keeps the relaxed-sync progress counters from
// sharing lines with grid data.
#pragma once

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "topo/placement.hpp"
#include "util/aligned_buffer.hpp"
#include "util/slices.hpp"

namespace tb::core {

/// 3-D array of doubles with padded rows.  Index order: (i, j, k) =
/// (x, y, z), x fastest.  Extents include any boundary/ghost layers the
/// caller needs; Grid3 itself attaches no meaning to them.
class Grid3 {
 public:
  Grid3() = default;

  Grid3(int nx, int ny, int nz) : nx_(nx), ny_(ny), nz_(nz) {
    if (nx < 1 || ny < 1 || nz < 1)
      throw std::invalid_argument("Grid3: extents must be >= 1");
    // The padded row pitch must fit an int, the byte count a size_t.
    const std::size_t sx = pad_row(nx), plane = std::size_t(ny) * nz;
    if (sx > INT_MAX || plane > SIZE_MAX / sizeof(double) / sx)
      throw std::invalid_argument("Grid3: extents overflow the allocation");
    sx_ = static_cast<int>(sx);
    buf_ = util::AlignedBuffer<double>(sx * plane);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  /// Padded row stride in elements (>= nx()).
  [[nodiscard]] int stride_x() const { return sx_; }
  /// Stride between consecutive z-planes in elements.
  [[nodiscard]] std::size_t stride_z() const {
    return static_cast<std::size_t>(sx_) * ny_;
  }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Bytes of payload (excluding row padding) — used by bandwidth models.
  [[nodiscard]] std::size_t payload_bytes() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_ * sizeof(double);
  }

  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * ny_ + j) * sx_ + i;
  }

  [[nodiscard]] double& at(int i, int j, int k) {
    return buf_[index(i, j, k)];
  }
  [[nodiscard]] const double& at(int i, int j, int k) const {
    return buf_[index(i, j, k)];
  }

  [[nodiscard]] double* data() { return buf_.data(); }
  [[nodiscard]] const double* data() const { return buf_.data(); }

  /// Pointer to the start of row (j, k).
  [[nodiscard]] double* row(int j, int k) { return buf_.data() + index(0, j, k); }
  [[nodiscard]] const double* row(int j, int k) const {
    return buf_.data() + index(0, j, k);
  }

  /// Sets every element (including padding) to `v`.
  void fill(double v) {
    for (auto& x : buf_) x = v;
  }

  /// Explicit deep copy (Grid3 is move-only to prevent accidental copies
  /// of multi-GiB arrays).
  [[nodiscard]] Grid3 clone() const {
    Grid3 out(nx_, ny_, nz_);
    for (std::size_t i = 0; i < buf_.size(); ++i) out.buf_[i] = buf_[i];
    return out;
  }

 private:
  static std::size_t pad_row(int nx) {
    constexpr std::size_t kDoublesPerLine =
        util::kCacheLineBytes / sizeof(double);
    return (nx + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
  }

  int nx_ = 0, ny_ = 0, nz_ = 0, sx_ = 0;
  util::AlignedBuffer<double> buf_;
};

/// `src` as a topo::touch_pages source for grids shaped like `dst`: dst
/// cell (i, j, k) takes src cell (i, j, k) + origin, zero where that
/// lies outside `src` (and in the row padding).  The zero origin with
/// `dst` shaped like `src` is the plain copy.
[[nodiscard]] inline topo::PageSource window_source(
    const Grid3& src, const Grid3& dst,
    const std::array<int, 3>& origin = {}) {
  topo::PageSource s;
  s.data = src.data();
  s.width = static_cast<std::size_t>(dst.nx());
  s.stride = static_cast<std::size_t>(dst.stride_x());
  s.height = static_cast<std::size_t>(dst.ny());
  s.origin = {origin[0], origin[1], origin[2]};
  s.extent = {static_cast<std::size_t>(src.nx()),
              static_cast<std::size_t>(src.ny()),
              static_cast<std::size_t>(src.nz())};
  s.pitch = static_cast<std::size_t>(src.stride_x());
  return s;
}

/// Writes value(i, j, k) into every cell of `g` and `pad` into its row
/// padding, z-slices split over `threads` (util::for_each_slice).  Each
/// cell is a function of its (i, j, k) alone, so the bits do not depend
/// on the split; `value` must not throw.
template <class Fn>
void fill_cells(Grid3& g, int threads, double pad, Fn&& value) {
  const int nx = g.nx(), ny = g.ny(), sx = g.stride_x();
  util::for_each_slice(threads, 0, g.nz(), [&](int, int k0, int k1) {
    for (int k = k0; k < k1; ++k)
      for (int j = 0; j < ny; ++j) {
        double* row = g.row(j, k);
        for (int i = 0; i < nx; ++i) row[i] = value(i, j, k);
        std::fill(row + nx, row + sx, pad);
      }
  });
}

/// Deterministic pseudo-random initial condition: smooth product of waves
/// plus a position hash, so that stencil bugs (off-by-one, transposed axes)
/// show up as large mismatches instead of cancelling out.  Per cell:
///
///   scale * (sin(0.31 i) cos(0.17 j) + sin(0.07 k i) * 0.25
///            + 0.01 * ((131 i + 17 j + 739 k) mod 97)).
///
/// The waves are tabulated — sin(0.31 i) per i, cos(0.17 j) per j and
/// sin(0.07 k i) per (k, i), as it does not depend on j — so the fill is
/// bound by memory instead of three libm calls per cell.  Each table
/// entry is the expression the per-cell formula evaluates and the sum
/// keeps its order (contraction is off build-wide), so every value is
/// bit-identical to evaluating the formula cell by cell, whatever the
/// number of `threads` the z-slices are split over.  Row padding is left
/// as it is.
inline void fill_test_pattern(Grid3& g, double scale = 1.0,
                              int threads = 1) {
  const int nx = g.nx(), ny = g.ny(), nz = g.nz();
  const int parts = std::max(1, threads);
  std::vector<double> sin_i(static_cast<std::size_t>(nx));
  std::vector<double> cos_j(static_cast<std::size_t>(ny));
  // One sin(0.07 k i) row per slice, allocated here: slices must not throw.
  std::vector<double> sin_ki(static_cast<std::size_t>(nx) * parts);
  for (int i = 0; i < nx; ++i) sin_i[i] = std::sin(0.31 * i);
  for (int j = 0; j < ny; ++j) cos_j[j] = std::cos(0.17 * j);
  util::for_each_slice(parts, 0, nz, [&](int t, int k0, int k1) {
    double* ski = sin_ki.data() + static_cast<std::size_t>(t) * nx;
    for (int k = k0; k < k1; ++k) {
      for (int i = 0; i < nx; ++i) ski[i] = std::sin(0.07 * k * i);
      for (int j = 0; j < ny; ++j) {
        double* row = g.row(j, k);
        for (int i = 0; i < nx; ++i) {
          const double w = sin_i[i] * cos_j[j] + ski[i] * 0.25 +
                           0.01 * ((i * 131 + j * 17 + k * 739) % 97);
          row[i] = scale * w;
        }
      }
    }
  });
}

/// The standard two-material field: background kappa 1 with a
/// high-conductivity (50x) slab across the middle third in z.  The one
/// material the varcoef examples, benches, tuning probes and tests all
/// share, so a tuned plan is probed and validated on identical physics.
/// Row padding holds 1; `threads` split the z-slices (fill_cells).
inline void fill_slab_kappa(Grid3& kappa, int threads = 1) {
  const int nz = kappa.nz();
  fill_cells(kappa, threads, 1.0, [&](int, int, int k) {
    return k >= nz / 3 && k < 2 * nz / 3 ? 50.0 : 1.0;
  });
}

/// fill_slab_kappa on a new nx*ny*nz grid.
[[nodiscard]] inline Grid3 make_slab_kappa(int nx, int ny, int nz,
                                           int threads = 1) {
  Grid3 kappa(nx, ny, nz);
  fill_slab_kappa(kappa, threads);
  return kappa;
}

/// Maximum absolute difference over the unpadded extents of two grids of
/// identical shape; returns +inf on shape mismatch.
inline double max_abs_diff(const Grid3& a, const Grid3& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
    return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (int k = 0; k < a.nz(); ++k)
    for (int j = 0; j < a.ny(); ++j)
      for (int i = 0; i < a.nx(); ++i)
        m = std::max(m, std::abs(a.at(i, j, k) - b.at(i, j, k)));
  return m;
}

}  // namespace tb::core
