// Tuning parameters of the pipelined temporal blocking scheme.
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

}  // namespace tb::core
