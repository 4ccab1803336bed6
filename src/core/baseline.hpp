// Standard (not temporally blocked) solver — the paper's baseline —
// generic over the stencil operator.
//
// Sec. 1.1: two grids written in turn, spatial blocking with a long inner
// loop (bx comparable to the page size is favorable for the hardware
// prefetchers), optional non-temporal stores that bypass the cache
// hierarchy and avoid the read-for-ownership, first-touch page placement,
// and one thread per core with a static work distribution.
//
// With non-temporal stores the code balance drops from 8/6 to 3 words per
// 6-flop update, so the memory-bandwidth expectation is
// P0 = Ms / 16 bytes (Eq. (2)).
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/grid.hpp"
#include "core/pipeline.hpp"  // RunStats
#include "core/stencil_op.hpp"
#include "core/sync.hpp"  // SpinBarrier
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tb::core {

/// Tuning parameters of the standard solver.
struct BaselineConfig {
  int threads = 1;
  BlockSize block{600, 20, 20};  ///< spatial tiles; bx is the inner loop
  bool nontemporal = true;       ///< bypass-cache streaming stores
};

/// Spatially blocked multi-threaded sweeps on two grids, templated on the
/// StencilOp (see core/stencil_op.hpp).
template <class Op>
class BaselineSolver {
 public:
  BaselineSolver(const BaselineConfig& cfg, int nx, int ny, int nz,
                 Op op = Op{})
      : cfg_(cfg),
        op_(op),
        nx_(nx),
        ny_(ny),
        nz_(nz),
        pool_(std::max(1, cfg.threads)) {
    if (cfg.threads < 1)
      throw std::invalid_argument("BaselineConfig: threads < 1");
    if (cfg.block.bx < 1 || cfg.block.by < 1 || cfg.block.bz < 1)
      throw std::invalid_argument("BaselineConfig: block extents < 1");
  }

  /// Runs `steps` sweeps; `a` holds the starting level (global index
  /// `base_level`, even levels live in `a`).  The whole step loop runs
  /// inside ONE thread-pool dispatch with a spin barrier between sweeps:
  /// a condition-variable fork/join per sweep costs more than a small
  /// sweep itself and used to bury the baseline an order of magnitude
  /// below the single-threaded reference at bench sizes.
  RunStats run(Grid3& a, Grid3& b, int steps, int base_level = 0) {
    Grid3* grids[2] = {&a, &b};
    RunStats stats;
    util::Timer timer;
    if (steps > 0) {
      // Interior extent and tile grid over (j, k); x is swept in bx
      // chunks inside each tile to keep the inner loop long.
      const int j0 = 1, j1 = ny_ - 1;
      const int k0 = 1, k1 = nz_ - 1;
      const int tiles_j = (j1 - j0 + cfg_.block.by - 1) / cfg_.block.by;
      const int tiles_k = (k1 - k0 + cfg_.block.bz - 1) / cfg_.block.bz;
      const long long tiles = 1LL * tiles_j * tiles_k;
      const int workers = pool_.size();
      const bool nt = cfg_.nontemporal && Op::kHasNontemporal &&
                      nontemporal_supported();
      SpinBarrier barrier(workers);

      // Telemetry: one flag + two histogram lookups hoisted out of the
      // dispatch; the disabled path pays a per-sweep branch and nothing
      // else inside the tile loop.
      const bool tel = obs::enabled();
      obs::Histogram* sweep_h =
          tel ? &obs::Registry::global().histogram("core.sweep.seconds")
              : nullptr;
      obs::Histogram* wait_h =
          tel ? &obs::Registry::global().histogram("core.barrier_wait.seconds")
              : nullptr;
      obs::Trace* tr = tel && obs::Trace::instance().running()
                           ? &obs::Trace::instance()
                           : nullptr;

      pool_.run([&, this](int w) {
        // Static contiguous partition of the tile list: matches the
        // first-touch initialization so each thread updates "its" pages.
        const long long lo = tiles * w / workers;
        const long long hi = tiles * (w + 1) / workers;
        for (int s = 0; s < steps; ++s) {
          const std::uint64_t t0 = tel ? obs::now_ns() : 0;
          const int global = base_level + s + 1;  // level being produced
          const Grid3& src = *grids[(global + 1) % 2];
          Grid3& dst = *grids[global % 2];
          for (long long t = lo; t < hi; ++t) {
            const int tj = static_cast<int>(t % tiles_j);
            const int tk = static_cast<int>(t / tiles_j);
            const int ja = j0 + tj * cfg_.block.by;
            const int jb = std::min(ja + cfg_.block.by, j1);
            const int ka = k0 + tk * cfg_.block.bz;
            const int kb = std::min(ka + cfg_.block.bz, k1);
            for (int k = ka; k < kb; ++k)
              for (int j = ja; j < jb; ++j) {
                for (int ia = 1; ia < nx_ - 1; ia += cfg_.block.bx) {
                  const int ib = std::min(ia + cfg_.block.bx, nx_ - 1);
                  if constexpr (Op::kHasNontemporal) {
                    if (nt) {
                      op_.row_nt(dst.row(j, k), src.row(j, k),
                                 src.row(j - 1, k), src.row(j + 1, k),
                                 src.row(j, k - 1), src.row(j, k + 1),
                                 global, j, k, ia, ib);
                      continue;
                    }
                  }
                  op_.row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
                          src.row(j + 1, k), src.row(j, k - 1),
                          src.row(j, k + 1), global, j, k, ia, ib);
                }
              }
          }
          // Streaming stores must be globally visible before the
          // barrier's release edge publishes the sweep.
          if (nt) nontemporal_fence();
          const std::uint64_t t1 = tel ? obs::now_ns() : 0;
          barrier.arrive_and_wait();
          if (tel) {
            const std::uint64_t t2 = obs::now_ns();
            sweep_h->observe(static_cast<double>(t1 - t0) * 1e-9);
            wait_h->observe(static_cast<double>(t2 - t1) * 1e-9);
            if (tr != nullptr) {
              tr->record("baseline.sweep", "core", t0, t1 - t0);
              tr->record("baseline.barrier", "core", t1, t2 - t1);
            }
          }
        }
      });
    }
    stats.seconds = timer.elapsed();
    stats.levels = steps;
    stats.cell_updates = 1LL * (nx_ - 2) * (ny_ - 2) * (nz_ - 2) * steps;
    if (obs::enabled() && steps > 0) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("core.lups").add(
          static_cast<std::uint64_t>(stats.cell_updates));
      reg.counter("core.sweeps").add(static_cast<std::uint64_t>(steps));
    }
    return stats;
  }

  /// Grid holding the final level.
  [[nodiscard]] Grid3& result(Grid3& a, Grid3& b, int steps,
                              int base_level = 0) const {
    return (base_level + steps) % 2 == 0 ? a : b;
  }

  [[nodiscard]] const BaselineConfig& config() const { return cfg_; }

 private:
  BaselineConfig cfg_;
  Op op_;
  int nx_, ny_, nz_;
  util::ThreadPool pool_;
};

/// The constant-coefficient instantiation (the paper's baseline).
using BaselineJacobi = BaselineSolver<JacobiOp>;

}  // namespace tb::core
