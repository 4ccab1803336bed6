// Builds the per-rank halo-exchange programs (simnet::RankProgram) from a
// dist::Decomposition — the modeled twin of DistributedStencil::advance's
// sequential epoch loop.  Both walk the same Decomposition::halo_plan(),
// so the bytes, message counts, tags and op order here are exactly those
// the executing solver produces; only the payload contents differ (the
// event engine and the replayer move dummy bytes).
//
// The overlapped (isend) exchange is deliberately not modeled yet: its
// schedule depends on Comm-internal completion times the IR does not
// carry, and the engine and World price concurrent isends under
// contention differently.  Sequential mode is what the scaling sweeps and
// the paper's Fig. 6 reproduce.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "dist/decomposition.hpp"
#include "simnet/rank_program.hpp"

namespace tb::dist {

/// Parameters of a modeled distributed halo-exchange run.
struct HaloProgramSpec {
  std::array<int, 3> global_n{34, 34, 34};
  std::array<int, 3> proc_dims{1, 1, 1};
  int halo = 1;          ///< ghost width = levels per epoch
  int fields = 1;        ///< grids per exchanged cell (carrier + state; 20 for lbm)
  double proc_lups = 1.0e9;  ///< modeled per-rank update rate [LUP/s]
  int epochs = 1;
  bool mark_epochs = true;  ///< emit a kEpochMark after every epoch
};

/// One program per rank, replaying `spec.epochs` sequential epochs: for
/// each phase of the rank's halo plan (x, y, z) — post the phase's sends,
/// then its receives — then charge the epoch's cell updates, then mark
/// the epoch.  Each rank's plan is built once and its op list allocated
/// once.
inline std::vector<simnet::RankProgram> build_halo_programs(
    const HaloProgramSpec& spec) {
  const Decomposition decomp(spec.global_n, spec.proc_dims, spec.halo);
  const std::size_t cell_bytes =
      static_cast<std::size_t>(spec.fields) * sizeof(double);
  std::vector<simnet::RankProgram> programs(
      static_cast<std::size_t>(decomp.ranks()));

  for (int rank = 0; rank < decomp.ranks(); ++rank) {
    const RankGeometry g = decomp.geometry(rank);
    const std::vector<HaloMessage> plan =
        decomp.halo_plan(g, /*direct=*/false);
    const double epoch_seconds =
        static_cast<double>(decomp.compute_cells(g, /*inner_only=*/false)) /
        spec.proc_lups;
    std::vector<simnet::RankOp>& ops =
        programs[static_cast<std::size_t>(rank)].ops;
    ops.reserve(static_cast<std::size_t>(spec.epochs) *
                (2 * plan.size() + (spec.mark_epochs ? 2 : 1)));
    for (int e = 0; e < spec.epochs; ++e) {
      for (int phase = 0; phase < halo_phases(/*direct=*/false); ++phase) {
        for (const HaloMessage& m : plan)
          if (m.phase == phase)
            ops.push_back(simnet::RankOp::send(m.peer, m.send_tag,
                                               m.send.cells() * cell_bytes));
        for (const HaloMessage& m : plan)
          if (m.phase == phase)
            ops.push_back(simnet::RankOp::recv(m.peer, m.recv_tag,
                                               m.recv.cells() * cell_bytes));
      }
      ops.push_back(simnet::RankOp::compute(epoch_seconds));
      if (spec.mark_epochs) ops.push_back(simnet::RankOp::epoch_mark());
    }
  }
  return programs;
}

}  // namespace tb::dist
