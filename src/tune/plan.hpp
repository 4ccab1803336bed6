// Value types of the model-guided autotuner.
//
// A *Problem* is what the user fixes: the grid shape and the operator
// (plus an optional constraint to one concrete variant).  A *Candidate*
// is one point of the schedule search space: a concrete registry variant
// with a full set of tunables.  A *Plan* is the tuner's answer: the
// winning candidate plus provenance (cache hit or how many timed probes
// were spent).
//
// The pipeline is   enumerate (search_space.hpp)
//                 → rank on the analytic models (model_ranker.hpp)
//                 → measure the shortlist (measure.hpp)
//                 → remember (tuning_cache.hpp)
// with planner.hpp as the front end and the "auto" registry variant as
// the transparent entry point.
#pragma once

#include <string>
#include <vector>

#include "core/solver.hpp"

namespace tb::tune {

/// What to tune for.  Grid extents include the boundary layers, exactly
/// as passed to the solvers.
struct Problem {
  int nx = 0, ny = 0, nz = 0;
  std::string op = "jacobi";  ///< registry operator name
  std::string variant;        ///< constraint to one concrete variant; "" = any

  [[nodiscard]] bool operator==(const Problem& o) const {
    return nx == o.nx && ny == o.ny && nz == o.nz && op == o.op &&
           variant == o.variant;
  }

  [[nodiscard]] std::string describe() const {
    return std::to_string(nx) + "x" + std::to_string(ny) + "x" +
           std::to_string(nz) + "/" + op +
           (variant.empty() ? std::string() : "/" + variant);
  }
};

/// One candidate schedule: a concrete variant plus its tunables.
struct Candidate {
  std::string variant;     ///< concrete registry variant name
  core::SolverConfig cfg;  ///< variant/scheme and tunables set; op is not
  double predicted_mlups = 0.0;  ///< model ranking score
  double measured_mlups = 0.0;   ///< probe result (0 until measured)

  /// Threads the schedule runs with.
  [[nodiscard]] int total_threads() const {
    switch (cfg.variant) {
      case core::Variant::kPipelined: return cfg.pipeline.total_threads();
      case core::Variant::kWavefront: return cfg.wavefront.threads;
      case core::Variant::kBaseline: return cfg.baseline.threads;
      case core::Variant::kReference: return 1;
    }
    return 1;
  }

  /// Copies the schedule into `dst`, preserving dst.op (the operator is
  /// a property of the problem, not of the schedule).  The lbm storage
  /// policy IS part of the schedule: an "lbm" problem is tuned over both
  /// the two-lattice and the in-place AA layout.
  void apply(core::SolverConfig& dst) const {
    dst.variant = cfg.variant;
    dst.pipeline = cfg.pipeline;
    dst.baseline = cfg.baseline;
    dst.wavefront = cfg.wavefront;
    dst.lbm_storage = cfg.lbm_storage;
    dst.lbm_prefetch = cfg.lbm_prefetch;
    dst.meta.clear();
  }

  [[nodiscard]] std::string describe() const {
    // Non-lbm candidates never carry kAA or a prefetch distance, so the
    // tags only ever show on lattice-Boltzmann schedules.
    const std::string variant_tag =
        variant +
        (cfg.lbm_storage == lbm::LbmStorage::kAA ? "+aa" : "") +
        (cfg.lbm_prefetch > 0 ? "+pf" + std::to_string(cfg.lbm_prefetch)
                              : "");
    switch (cfg.variant) {
      case core::Variant::kPipelined:
        return variant_tag + "[n=" + std::to_string(cfg.pipeline.teams) +
               ",t=" + std::to_string(cfg.pipeline.team_size) +
               ",T=" + std::to_string(cfg.pipeline.steps_per_thread) +
               ",b=" + std::to_string(cfg.pipeline.block.bx) + "x" +
               std::to_string(cfg.pipeline.block.by) + "x" +
               std::to_string(cfg.pipeline.block.bz) +
               ",du=" + std::to_string(cfg.pipeline.du) + "]";
      case core::Variant::kWavefront:
        return variant_tag + "[t=" + std::to_string(cfg.wavefront.threads) +
               "]";
      case core::Variant::kBaseline:
        return variant_tag +
               "[threads=" + std::to_string(cfg.baseline.threads) +
               ",b=" + std::to_string(cfg.baseline.block.bx) + "x" +
               std::to_string(cfg.baseline.block.by) + "x" +
               std::to_string(cfg.baseline.block.bz) +
               (cfg.baseline.nontemporal ? ",nt" : "") + "]";
      case core::Variant::kReference: return variant_tag;
    }
    return variant_tag;
  }
};

/// The tuner's answer for one problem.
struct Plan {
  Candidate best;
  bool from_cache = false;  ///< true: no probes ran, plan came from disk
  int probes_run = 0;       ///< timed probes this call performed
  int enumerated = 0;       ///< search-space size before pruning
  std::vector<Candidate> shortlist;  ///< measured survivors, ranked order
};

}  // namespace tb::tune
