// Model-vs-measured accounting: the NodeModel prediction for an
// arbitrary SolverConfig, so every instrumented run (benches, the
// examples, the run database) can put the paper's Eq. (2)/(4)/(5)
// expectation next to the MLUP/s it actually achieved.  The tuner ranks
// its candidates with the same prediction.
//
// Header-only and dependent only on core + perfmodel — deliberately
// NOT on tune:: (linking the tuner pulls its static registration of
// the "auto" meta variant into every bench).
#pragma once

#include <string>

#include "core/solver.hpp"
#include "perfmodel/model_api.hpp"

namespace tb::obs {

/// The traffic row that prices `opname` under this config.  A bare
/// "lbm" operator run with AA storage is priced on the "lbm:aa" row
/// (one lattice, no write-allocate), so a tuner problem that ranks both
/// storage policies prices each candidate by its own layout.
[[nodiscard]] inline perfmodel::OperatorTraffic model_traffic(
    const core::SolverConfig& cfg, const std::string& opname) {
  const bool aa = cfg.lbm_storage == lbm::LbmStorage::kAA;
  return perfmodel::operator_traffic(opname == "lbm" && aa ? "lbm:aa"
                                                           : opname);
}

/// Modeled main-memory bytes per lattice-site update of `opname` under
/// this config's store flavour — the bytes_per_lup column of run rows.
/// Streaming stores drop the write-allocate, the compressed grid's
/// in-place update saves one word, and the temporally blocked variants
/// amortize over the team-sweep depth.
[[nodiscard]] inline double model_bytes_per_lup(
    const core::SolverConfig& cfg, const std::string& opname) {
  const perfmodel::OperatorTraffic t = model_traffic(cfg, opname);
  const int S = cfg.sweep_depth();
  const bool compressed =
      cfg.variant == core::Variant::kPipelined &&
      cfg.pipeline.scheme == core::GridScheme::kCompressed;
  const bool streaming = cfg.variant == core::Variant::kBaseline &&
                         cfg.baseline.nontemporal &&
                         t.mem_bytes_nt < t.mem_bytes;
  double bytes = streaming ? t.mem_bytes_nt : t.mem_bytes;
  if (compressed) bytes -= sizeof(double);  // in-place: no write-allocate
  return (bytes + t.aux_bytes) / S;
}

/// NodeModel-predicted MLUP/s of a solver configuration: dispatches on
/// cfg.variant to the matching model (baseline Eq. (2), pipelined
/// Eq. (4)/(5) with the cache-capacity gate, wavefront with its plane
/// fit).  `nx`/`ny` are the grid's plane extents (the wavefront
/// capacity gate needs them; others ignore them).
[[nodiscard]] inline double predicted_solver_mlups(
    const core::SolverConfig& cfg, const std::string& opname,
    const perfmodel::NodeModel& model, int nx, int ny) {
  const perfmodel::OperatorTraffic t = model_traffic(cfg, opname);
  switch (cfg.variant) {
    case core::Variant::kReference:
      return model.baseline_lups(t, 1, /*nontemporal=*/false) / 1e6;
    case core::Variant::kBaseline:
      return model.baseline_lups(t, cfg.baseline.threads,
                                 cfg.baseline.nontemporal,
                                 cfg.lbm_prefetch) /
             1e6;
    case core::Variant::kPipelined: {
      const core::PipelineConfig& p = cfg.pipeline;
      const std::size_t block_bytes = static_cast<std::size_t>(p.block.bx) *
                                      static_cast<std::size_t>(p.block.by) *
                                      static_cast<std::size_t>(p.block.bz) *
                                      sizeof(double);
      return model.pipelined_lups(
                 t, p.teams, p.team_size, p.steps_per_thread, block_bytes,
                 p.du, p.scheme == core::GridScheme::kCompressed) /
             1e6;
    }
    case core::Variant::kWavefront:
      return model.wavefront_lups(t, cfg.wavefront.threads, nx, ny) / 1e6;
  }
  return 0.0;
}

}  // namespace tb::obs
