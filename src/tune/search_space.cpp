#include "tune/search_space.hpp"

#include <algorithm>
#include <array>

#include "core/registry.hpp"
#include "perfmodel/model_api.hpp"

namespace tb::tune {

namespace {

/// Powers of two up to (and always including) `cap`.
std::vector<int> thread_ladder(int cap) {
  std::vector<int> counts;
  for (int t = 1; t < cap; t *= 2) counts.push_back(t);
  counts.push_back(cap);
  return counts;
}

/// Square (j, k) tiles from the geometric ladder, clipped to the
/// interior extent and deduplicated.  Heavy-state operators (lbm moves
/// 20 grids plus geometry per cell) get a ladder one octave down, so the
/// enumeration contains blocks whose in-flight set still fits the shared
/// cache — the capacity gate in the model would otherwise demote every
/// pipelined candidate to its baseline fallback.
std::vector<int> tile_ladder(int interior, bool heavy) {
  std::vector<int> tiles;
  const auto ladder = heavy ? std::array<int, 3>{4, 8, 16}
                            : std::array<int, 3>{8, 16, 32};
  for (int t : ladder) {
    const int clipped = std::max(1, std::min(t, interior));
    if (tiles.empty() || tiles.back() != clipped) tiles.push_back(clipped);
  }
  return tiles;
}

bool wants(const Problem& p, const char* variant) {
  return p.variant.empty() || p.variant == variant;
}

}  // namespace

bool nontemporal_pays(const std::string& op, int nx, int ny, int nz,
                      const topo::MachineSpec& machine) {
  const perfmodel::OperatorTraffic traffic =
      perfmodel::operator_traffic(op);
  if (traffic.mem_bytes_nt >= traffic.mem_bytes)
    return false;  // the operator has no streaming-store row path
  // Working set of one sweep: the carrier pair scaled by the operator's
  // resident per-cell state (block_state_factor covers the lbm lattices,
  // the varcoef coefficients, ...).  Streaming stores only pay once that
  // set spills the outer cache; below it the write-allocate is a hit.
  return static_cast<double>(nx) * ny * nz * (2 * sizeof(double)) *
             traffic.block_state_factor >
         static_cast<double>(machine.shared_cache_bytes);
}

std::vector<Candidate> enumerate_candidates(
    const Problem& p, const topo::MachineSpec& machine) {
  std::vector<Candidate> out;
  const int cores = machine.total_cores();
  const std::vector<int> threads = thread_ladder(cores);
  const perfmodel::OperatorTraffic traffic =
      perfmodel::operator_traffic(p.op);
  const bool heavy =
      traffic.mem_bytes + traffic.aux_bytes >= 4 * 24.0;
  const std::vector<int> tiles =
      tile_ladder(std::max(p.ny - 2, 1), heavy);

  // The lbm storage policy is a schedule axis: a bare "lbm" problem is
  // tuned over both layouts (the ranker prices them with their own
  // traffic rows), "lbm:aa" pins the in-place layout, and every other
  // operator keeps the default.  emit() fans one schedule out across
  // the applicable storages.
  using Storage = lbm::LbmStorage;
  const std::vector<Storage> storages =
      p.op == "lbm" ? std::vector<Storage>{Storage::kTwoLattice, Storage::kAA}
      : p.op == "lbm:aa" ? std::vector<Storage>{Storage::kAA}
                         : std::vector<Storage>{Storage::kTwoLattice};
  // Software-prefetch distance for the D3Q19 gather (cells ahead on each
  // of the 19 pull streams) — only the lbm operators overrun the
  // hardware stream tracker, so only they fan the axis; 16 cells (two
  // cache lines at W=8) is the classic pull-scheme distance.
  const std::vector<int> prefetches =
      (p.op == "lbm" || p.op == "lbm:aa") ? std::vector<int>{0, 16}
                                          : std::vector<int>{0};
  auto emit = [&out, &storages, &prefetches](Candidate c) {
    for (Storage s : storages) {
      c.cfg.lbm_storage = s;
      for (int pf : prefetches) {
        c.cfg.lbm_prefetch = pf;
        out.push_back(c);
      }
    }
  };

  // The oracle is only a "schedule" when explicitly requested; tuning
  // never proposes a single-threaded naive sweep on its own.
  if (p.variant == "reference") {
    Candidate c;
    c.variant = "reference";
    c.cfg.variant = core::Variant::kReference;
    emit(c);
    return out;
  }

  if (wants(p, "baseline")) {
    for (int th : threads)
      for (int tile : tiles) {
        Candidate c;
        c.variant = "baseline";
        c.cfg.variant = core::Variant::kBaseline;
        c.cfg.baseline.threads = th;
        c.cfg.baseline.block = {p.nx, tile, tile};
        // Streaming stores only exist for operators with an NT path and
        // only pay off when the grid exceeds the outer cache (Sec. 1.1);
        // the probes re-apply the same criterion at probe size.
        c.cfg.baseline.nontemporal =
            nontemporal_pays(p.op, p.nx, p.ny, p.nz, machine);
        emit(c);
      }
  }

  for (const char* scheme : {"pipelined", "compressed"}) {
    if (!wants(p, scheme)) continue;
    // One team per outer-level cache group, or everything in one team.
    // Multicore machines start at t = 2 (t = 1 pipelines are dominated
    // there); a single-core machine keeps t = 1 so a pipelined/
    // compressed constraint is always satisfiable (serial temporal
    // blocking with T > 1 is still a real schedule).  Like
    // thread_ladder(), the ladder always includes the full cache group
    // (6-core sockets must compete at 6 threads, not stop at 4).
    const int t_first = machine.cores_per_socket >= 2 ? 2 : 1;
    std::vector<int> team_sizes;
    for (int t = t_first; t < machine.cores_per_socket; t *= 2)
      team_sizes.push_back(t);
    if (team_sizes.empty() ||
        team_sizes.back() != machine.cores_per_socket)
      team_sizes.push_back(machine.cores_per_socket);
    for (int teams : {1, machine.sockets}) {
      for (int t : team_sizes) {
        if (teams * t > cores) continue;
        for (int T : {1, 2, 4})
          for (int du : {2, 4, 8})
            for (int tile : tiles) {
              Candidate c;
              c.variant = scheme;
              core::apply_variant(c.cfg, scheme);  // variant + storage scheme
              c.cfg.pipeline.teams = teams;
              c.cfg.pipeline.team_size = t;
              c.cfg.pipeline.steps_per_thread = T;
              c.cfg.pipeline.block = {p.nx, tile, tile};
              c.cfg.pipeline.dl = 1;
              c.cfg.pipeline.du = du;
              // Remainder steps (not a multiple of the depth) fall back
              // to baseline sweeps with the same thread count; whether
              // THEY stream is the operator/grid capability question,
              // not a per-variant constant.
              c.cfg.baseline.threads = teams * t;
              c.cfg.baseline.block = {p.nx, tile, tile};
              c.cfg.baseline.nontemporal =
                  nontemporal_pays(p.op, p.nx, p.ny, p.nz, machine);
              c.cfg.pipeline.validate();
              emit(c);
            }
      }
      if (machine.sockets == 1) break;  // the {1, sockets} set collapsed
    }
  }

  if (wants(p, "wavefront")) {
    for (int th : threads) {
      // Depth-1 wavefronts are dominated by the baseline, except on a
      // single-core machine where they are the only wavefront there is.
      if (th < 2 && cores > 1) continue;
      Candidate c;
      c.variant = "wavefront";
      c.cfg.variant = core::Variant::kWavefront;
      c.cfg.wavefront.threads = th;
      c.cfg.baseline.threads = th;  // remainder fallback
      c.cfg.baseline.nontemporal =
          nontemporal_pays(p.op, p.nx, p.ny, p.nz, machine);
      emit(c);
    }
  }

  return out;
}

}  // namespace tb::tune
