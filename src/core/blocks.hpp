// Time-skewed block decomposition for the pipelined scheme.
//
// The computational domain is tiled into bx*by*bz blocks, traversed in
// lexicographic order (x fastest, z slowest — matching the cell traversal
// order of the kernels).  A block's update *window* at time level s is the
// block's cell range shifted by -(s-1) in every direction ("shifting the
// block by one cell in each direction after an update", Fig. 1), clipped to
// the level's valid region.
//
// The shift realizes the temporal skewing: level s+1's window trails level
// s's window by one cell per direction, so a thread that stays at least one
// *block* behind its predecessor only ever reads cells the predecessor has
// already written.  The proof is the standard time-skewing argument: every
// read of a level-s value by a level-(s+1) update lies at a strictly
// smaller skewed lexicographic position than the write, for any traversal
// with z outermost.
//
// The clip region may vary per level: the shared-memory solver uses the
// constant interior [1, n-1)^3, while the distributed solver's regions
// shrink into the ghost layers by one cell per level (Sec. 2.1).
#pragma once

#include <array>
#include <stdexcept>
#include <vector>

namespace tb::core {

/// Block extents in cells.  The paper's notation bx x by x bz.
struct BlockSize {
  int bx = 120;
  int by = 20;
  int bz = 20;

  [[nodiscard]] int dim(int d) const {
    return d == 0 ? bx : (d == 1 ? by : bz);
  }
  [[nodiscard]] long long cells() const {
    return 1LL * bx * by * bz;
  }
  [[nodiscard]] std::size_t bytes(int grids = 2) const {
    return static_cast<std::size_t>(cells()) * sizeof(double) * grids;
  }
};

/// Half-open valid cell region [lo, hi) per dimension for one time level.
struct LevelClip {
  std::array<int, 3> lo{1, 1, 1};
  std::array<int, 3> hi{0, 0, 0};
};

/// Half-open 3-D box; empty() when any extent is non-positive.
struct Box {
  std::array<int, 3> lo{0, 0, 0};
  std::array<int, 3> hi{0, 0, 0};

  [[nodiscard]] bool empty() const {
    return lo[0] >= hi[0] || lo[1] >= hi[1] || lo[2] >= hi[2];
  }
  [[nodiscard]] long long cells() const {
    if (empty()) return 0;
    return 1LL * (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]);
  }
};

/// Precomputed traversal plan: block counts per dimension and the window
/// geometry for every (block, level) pair.
class BlockPlan {
 public:
  /// `clips[s-1]` is the valid region of time level s (s = 1..levels).
  /// All levels share one block index space so that the per-thread
  /// progress-counter distances translate into spatial distances.
  ///
  /// `bidirectional` sizes the block index space to also cover backward
  /// sweeps, whose windows skew by +(s-1) instead of -(s-1).  The
  /// compressed-grid scheme alternates directions; the two-grid scheme is
  /// forward-only and uses the tighter unidirectional sizing.
  ///
  /// A block extent that covers the widest level clip of a dimension
  /// makes that dimension one block wide (nb = 1), spanning the whole
  /// skewed span; its windows are still clipped, so no window grows.
  BlockPlan(const BlockSize& bs, const std::vector<LevelClip>& clips,
            bool bidirectional = false)
      : bs_(bs), clips_(clips) {
    if (clips.empty()) throw std::invalid_argument("BlockPlan: no levels");
    if (bs.bx < 1 || bs.by < 1 || bs.bz < 1)
      throw std::invalid_argument("BlockPlan: block extents must be >= 1");
    for (int d = 0; d < 3; ++d) {
      int base = clips[0].lo[d];  // shift of level 1 is zero
      int max_end = clips[0].hi[d];
      int widest = 0;  // widest level clip
      for (std::size_t idx = 0; idx < clips.size(); ++idx) {
        const int shift = static_cast<int>(idx);  // level s = idx+1
        // Forward windows: [base + b*B - shift, ...) must reach clip.
        base = std::min(base, clips[idx].lo[d] + shift);
        max_end = std::max(max_end, clips[idx].hi[d] + shift);
        if (bidirectional) {
          // Backward windows: [base + b*B + shift, ...).
          base = std::min(base, clips[idx].lo[d] - shift);
          max_end = std::max(max_end, clips[idx].hi[d] - shift);
        }
        widest = std::max(widest, clips[idx].hi[d] - clips[idx].lo[d]);
      }
      base_[d] = base;
      const int span = max_end - base;
      // Not a full block plus a sliver of up to 2(S-1) cells that would
      // pay its own clearance wait and window set-up.
      extent_[d] = bs.dim(d) >= widest ? std::max(span, bs.dim(d)) : bs.dim(d);
      nb_[d] = span <= 0 ? 1 : (span + extent_[d] - 1) / extent_[d];
    }
  }

  [[nodiscard]] int levels() const { return static_cast<int>(clips_.size()); }
  [[nodiscard]] int nb(int d) const { return nb_[d]; }
  [[nodiscard]] long long num_blocks() const {
    return 1LL * nb_[0] * nb_[1] * nb_[2];
  }
  [[nodiscard]] const BlockSize& block_size() const { return bs_; }
  [[nodiscard]] const LevelClip& clip(int level) const {
    return clips_[static_cast<std::size_t>(level - 1)];
  }

  /// Decodes a linear block counter (0-based) into (bi, bj, bk);
  /// bi fastest, bk slowest, matching the cell-lexicographic order.
  [[nodiscard]] std::array<int, 3> decode(long long c) const {
    std::array<int, 3> b;
    b[0] = static_cast<int>(c % nb_[0]);
    b[1] = static_cast<int>((c / nb_[0]) % nb_[1]);
    b[2] = static_cast<int>(c / (1LL * nb_[0] * nb_[1]));
    return b;
  }

  /// The update window of block `b` at time level `level` (1-based):
  /// block range shifted by -(level-1) for forward sweeps or +(level-1)
  /// for backward sweeps, clipped to the level's region.
  [[nodiscard]] Box window(const std::array<int, 3>& b, int level,
                           bool forward = true) const {
    const LevelClip& c = clip(level);
    const int shift = forward ? (level - 1) : -(level - 1);
    Box w;
    for (int d = 0; d < 3; ++d) {
      const int lo = base_[d] + b[d] * extent_[d] - shift;
      w.lo[d] = std::max(lo, c.lo[d]);
      w.hi[d] = std::min(lo + extent_[d], c.hi[d]);
    }
    return w;
  }

  /// Convenience overload on the linear counter.
  [[nodiscard]] Box window(long long c, int level, bool forward = true) const {
    return window(decode(c), level, forward);
  }

 private:
  BlockSize bs_;
  std::vector<LevelClip> clips_;
  std::array<int, 3> base_{};
  std::array<int, 3> extent_{};  ///< block extent used by window()
  std::array<int, 3> nb_{};
};

/// Clip regions for the plain shared-memory case: every level updates the
/// constant interior [1, n-1)^3 of an nx*ny*nz grid (with Dirichlet
/// boundaries).
[[nodiscard]] inline std::vector<LevelClip> interior_clips(int nx, int ny,
                                                           int nz,
                                                           int levels) {
  LevelClip c;
  c.lo = {1, 1, 1};
  c.hi = {nx - 1, ny - 1, nz - 1};
  return std::vector<LevelClip>(static_cast<std::size_t>(levels), c);
}

}  // namespace tb::core
