// Capacity model of the wavefront method (Ref. [2]) — used by the
// comparison table of bench/paper_figures and the facade's model row to
// show *why* pipelined blocking is the multicore-aware choice: the
// wavefront working set is a fixed count of full xy-planes and cannot be
// shrunk, so on large grids it spills the shared cache and the temporal
// reuse is lost.  The executable wavefront is the plane-block pipeline
// preset of core::WavefrontConfig; this model counts 2t planes per grid,
// the least that preset keeps in flight (relaxed neighbours may drift
// further apart).
#pragma once

#include <cstddef>

#include "perfmodel/single_cache_model.hpp"
#include "topo/machine.hpp"

namespace tb::perfmodel {

/// Cache-resident bytes of a t-deep two-grid wavefront over nx*ny planes.
[[nodiscard]] inline std::size_t wavefront_working_set(int nx, int ny,
                                                       int t) {
  return 2ull * static_cast<std::size_t>(nx) * ny * sizeof(double) *
         static_cast<std::size_t>(2 * t);
}

/// Does a t-deep wavefront fit the shared cache of `m`?
[[nodiscard]] inline bool wavefront_fits(const topo::MachineSpec& m, int nx,
                                         int ny, int t) {
  return wavefront_working_set(nx, ny, t) <= m.shared_cache_bytes;
}

/// Largest wavefront depth that still fits the cache (0 if even t=1
/// spills).
[[nodiscard]] inline int max_wavefront_depth(const topo::MachineSpec& m,
                                             int nx, int ny) {
  int t = 0;
  while (wavefront_fits(m, nx, ny, t + 1)) ++t;
  return t;
}

/// Predicted socket performance of a t-thread wavefront [LUP/s]: with a
/// cache-resident wave it behaves like pipelined blocking at T = 1
/// (Eq. (5)); once the planes spill, every level streams from memory and
/// the scheme degenerates to the standard algorithm's ceiling.
[[nodiscard]] inline double wavefront_lups_socket(const topo::MachineSpec& m,
                                                  int nx, int ny, int t) {
  if (wavefront_fits(m, nx, ny, t))
    return baseline_lups_socket(m) * pipeline_speedup(m, t, 1);
  return baseline_lups_socket(m) * 16.0 / 24.0;  // RFO is back: 24 B/cell
}

}  // namespace tb::perfmodel
