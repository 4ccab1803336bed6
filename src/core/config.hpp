// Tuning parameters of the pipelined temporal blocking scheme, and the
// wavefront method as a preset of it.
#pragma once

#include <stdexcept>
#include <string>

#include "core/blocks.hpp"

namespace tb::core {

/// Synchronization flavour (Sec. 1.3 "Relaxed synchronization").
enum class SyncMode {
  kBarrier,  ///< global barrier after each block update
  kRelaxed,  ///< per-thread progress counters with soft distance bounds
};

/// Storage scheme.
enum class GridScheme {
  kTwoGrid,     ///< separate grids A and B, alternating roles
  kCompressed,  ///< single grid, results shifted by ±(1,1,1) per level
};

[[nodiscard]] constexpr const char* to_string(SyncMode m) {
  return m == SyncMode::kBarrier ? "barrier" : "relaxed";
}
[[nodiscard]] constexpr const char* to_string(GridScheme s) {
  return s == GridScheme::kTwoGrid ? "two-grid" : "compressed";
}

/// Full parameter set of the pipeline.  Paper notation:
///   n = teams, t = team_size, T = steps_per_thread,
///   d_l / d_u = lower/upper thread distance, d_t = team delay.
struct PipelineConfig {
  int teams = 1;             ///< n — one per outer-level cache group
  int team_size = 4;         ///< t — threads sharing a cache
  int steps_per_thread = 1;  ///< T — updates each thread performs per block
  BlockSize block{};         ///< bx x by x bz block extents
  int dl = 1;                ///< minimum distance between neighbour threads
  int du = 4;                ///< maximum distance ("pipeline looseness")
  int dt = 0;                ///< extra delay between consecutive teams
  SyncMode sync = SyncMode::kRelaxed;
  GridScheme scheme = GridScheme::kTwoGrid;

  /// Levels advanced per team sweep: n * t * T.
  [[nodiscard]] int levels_per_sweep() const {
    return teams * team_size * steps_per_thread;
  }

  /// Total pipeline threads: n * t.
  [[nodiscard]] int total_threads() const { return teams * team_size; }

  /// Throws std::invalid_argument when the parameters are inconsistent.
  /// In particular d_u >= d_l >= 1 is required: d_l = 0 races and
  /// d_u < d_l deadlocks (each neighbour pair waits on the other).
  void validate() const {
    if (teams < 1) throw std::invalid_argument("PipelineConfig: teams < 1");
    if (team_size < 1)
      throw std::invalid_argument("PipelineConfig: team_size < 1");
    if (steps_per_thread < 1)
      throw std::invalid_argument("PipelineConfig: steps_per_thread < 1");
    if (block.bx < 1 || block.by < 1 || block.bz < 1)
      throw std::invalid_argument("PipelineConfig: block extents < 1");
    if (dl < 1) throw std::invalid_argument("PipelineConfig: dl < 1");
    if (du < dl) throw std::invalid_argument("PipelineConfig: du < dl");
    if (dt < 0) throw std::invalid_argument("PipelineConfig: dt < 0");
  }

  [[nodiscard]] std::string describe() const {
    return std::string("pipeline[n=") + std::to_string(teams) +
           ",t=" + std::to_string(team_size) +
           ",T=" + std::to_string(steps_per_thread) +
           ",b=" + std::to_string(block.bx) + "x" + std::to_string(block.by) +
           "x" + std::to_string(block.bz) + ",dl=" + std::to_string(dl) +
           ",du=" + std::to_string(du) + ",dt=" + std::to_string(dt) + "," +
           to_string(sync) + "," + to_string(scheme) + "]";
  }
};

/// The wavefront method of Ref. [2] (Wellein et al., COMPSAC 2009) — the
/// comparison method — run as a preset of the pipelined scheme.
///
/// Where pipelined blocking tiles the domain into cache-sized 3-D blocks,
/// the wavefront keeps whole xy-planes in flight: thread i updates time
/// level i+1 at least one block (one plane) behind thread i-1, which the
/// one-cell-per-level window skew turns into two planes — the spacing
/// that prevents the write-after-read hazard between levels sharing a
/// grid parity.  That is a pipeline whose block is one full plane.
///
/// Its limitation — the reason the paper's pipelined scheme exists — is
/// that the working set is a fixed number of *full planes*: 2 grids x
/// 2t planes must stay cache-resident (more while relaxed neighbours
/// drift up to d_u planes apart).  For a 600^2 plane that is ~2.9 MiB
/// per plane and the shared L3 overflows already at t = 2, while
/// pipelined blocking can always shrink its blocks.  See
/// perfmodel/wavefront_model.hpp for the capacity analysis and the
/// wavefront table of bench/paper_figures for the comparison.
struct WavefrontConfig {
  int threads = 4;  ///< wavefront depth = time levels per sweep

  void validate() const {
    if (threads < 1)
      throw std::invalid_argument("WavefrontConfig: threads < 1");
  }

  /// The pipeline that runs this wavefront over nx*ny planes: one team
  /// of `threads`, T = 1, blocks one full plane wide and one plane thick.
  /// A block that covers the plane spans the level-skewed windows too
  /// (BlockPlan), so every plane is one block.  Default d_l/d_u, relaxed
  /// sync, two grids.
  [[nodiscard]] PipelineConfig pipeline(int nx, int ny) const {
    PipelineConfig p;
    p.teams = 1;
    p.team_size = threads;
    p.steps_per_thread = 1;
    p.block = {nx, ny, 1};
    return p;
  }
};

}  // namespace tb::core
