// Timed probes: short real runs of shortlisted candidates through the
// StencilSolver facade, on a probe grid capped to keep each probe in the
// tens-of-milliseconds range.
//
// The models rank; measurement decides.  A probe advances one warm-up
// team sweep (page placement, pool spin-up) and then times at least two
// whole sweeps, so every temporally blocked candidate is measured on its
// steady-state path rather than its baseline remainder fallback.
//
// Candidates are enumerated against the FULL problem, so their schedule
// parameters need not fit the capped probe grid; project_to_probe()
// clips every block/tile extent to the probe interior and re-derives the
// streaming-store decision for the probe size (the Sec. 1.1 criterion a
// cache-resident probe grid fails), so the probe times the same schedule
// *shape* the full-size deployment would run.
#pragma once

#include <optional>

#include "topo/machine.hpp"
#include "tune/plan.hpp"

namespace tb::tune {

/// Probe sizing knobs.
struct ProbeOptions {
  int max_extent = 64;  ///< cap per grid dimension (probes stay small)
  int min_steps = 4;    ///< lower bound on timed time levels

  /// Machine the NT re-derivation consults; nullopt = topo::host_machine()
  /// (the planner passes its own machine down so probe and ranking agree).
  std::optional<topo::MachineSpec> machine;
};

/// Projects a full-problem candidate onto a probe grid of extents
/// (nx, ny, nz): clips bx to the row length, every (j, k) tile — block
/// by/bz of the pipelined and the baseline schedule — to the probe
/// interior (the wavefront sizes its plane blocks from the grid it
/// runs on), and re-applies the nontemporal_pays() criterion of
/// search_space.hpp at probe size.  Pure function; exposed for the
/// regression tests.
[[nodiscard]] Candidate project_to_probe(Candidate c, const Problem& p,
                                         int nx, int ny, int nz,
                                         const topo::MachineSpec& machine);

/// Runs one timed probe of `c` on (a capped version of) problem `p` and
/// returns the measured MLUP/s.  Throws std::invalid_argument for
/// unknown operator names (registry validation).
[[nodiscard]] double measure_candidate(const Candidate& c, const Problem& p,
                                       const ProbeOptions& opts = {});

}  // namespace tb::tune
