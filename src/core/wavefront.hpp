// Wavefront temporal blocking — the comparison method (Ref. [2],
// Wellein et al., COMPSAC 2009) — generic over the stencil operator.
//
// Where pipelined blocking tiles the domain into cache-sized 3-D blocks,
// the wavefront method keeps whole xy-planes in flight: thread i updates
// time level i+1 on plane z = k - 2i while the threads sweep z in lock
// step (a barrier per plane step).  The 2-plane spacing prevents the
// write-after-read hazard between levels sharing a grid parity.
//
// Its limitation — the reason the paper's pipelined scheme exists — is
// that the working set is a fixed number of *full planes*: 2 grids x
// (2t-1) planes must stay cache-resident.  For a 600^2 plane that is
// ~2.9 MiB per plane and the shared L3 overflows already at t = 2, while
// pipelined blocking can always shrink its blocks.  The wavefront variant
// here is the clean two-grid formulation (no extra boundary copies); see
// perfmodel/wavefront_model.hpp for the capacity analysis and the
// wavefront table of bench/paper_figures for the comparison.
#pragma once

#include <algorithm>
#include <barrier>
#include <stdexcept>

#include "core/grid.hpp"
#include "core/pipeline.hpp"  // RunStats
#include "core/stencil_op.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace tb::core {

/// Tuning parameters of the wavefront scheme.
struct WavefrontConfig {
  int threads = 4;  ///< wavefront depth = time levels per sweep
  int by = 16;      ///< y tile inside a plane (inner-cache blocking)

  void validate() const {
    if (threads < 1)
      throw std::invalid_argument("WavefrontConfig: threads < 1");
    if (by < 1) throw std::invalid_argument("WavefrontConfig: by < 1");
  }
};

/// Two-grid wavefront-parallel solver (one update per thread per plane),
/// templated on the StencilOp (see core/stencil_op.hpp).
template <class Op>
class WavefrontSolver {
 public:
  WavefrontSolver(const WavefrontConfig& cfg, int nx, int ny, int nz,
                  Op op = Op{})
      : cfg_(cfg), op_(op), nx_(nx), ny_(ny), nz_(nz), pool_(cfg.threads) {
    cfg.validate();
  }

  /// Advances `sweeps * threads` time levels.  `a` holds the starting
  /// level (global index `base_level`; even levels live in `a`).
  RunStats run(Grid3& a, Grid3& b, int sweeps, int base_level = 0) {
    Grid3* grids[2] = {&a, &b};
    const int t = cfg_.threads;
    const int planes = nz_ - 2;              // interior planes
    const long long steps = planes + 2LL * (t - 1);

    RunStats stats;
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
    util::Timer timer;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      obs::ScopedTimer st(sweep_h);
      obs::Span span("wavefront.sweep", "core");
      const int sweep_base = base_level + sweep * t;
      std::barrier barrier(t);
      pool_.run([&](int i) {
        const int level = sweep_base + i + 1;   // this thread's time level
        const Grid3& src = *grids[(level + 1) % 2];
        Grid3& dst = *grids[level % 2];
        std::uint64_t wait_ns = 0;
        for (long long step = 0; step < steps; ++step) {
          const long long k = 1 + step - 2LL * i;  // plane, 2-plane spacing
          if (k >= 1 && k < nz_ - 1) {
            const int kk = static_cast<int>(k);
            for (int ja = 1; ja < ny_ - 1; ja += cfg_.by) {
              const int jb = std::min(ja + cfg_.by, ny_ - 1);
              for (int j = ja; j < jb; ++j)
                op_.row(dst.row(j, kk), src.row(j, kk), src.row(j - 1, kk),
                        src.row(j + 1, kk), src.row(j, kk - 1),
                        src.row(j, kk + 1), level, j, kk, 1, nx_ - 1);
            }
          }
          if (tel) {
            const std::uint64_t w0 = obs::now_ns();
            barrier.arrive_and_wait();
            wait_ns += obs::now_ns() - w0;
          } else {
            barrier.arrive_and_wait();
          }
        }
        if (tel) {
          wait_h->observe(static_cast<double>(wait_ns) * 1e-9);
          if (tr != nullptr) {
            const std::uint64_t s1 = obs::now_ns();
            tr->record("wavefront.barrier", "core", s1 - wait_ns, wait_ns);
          }
        }
      });
    }
    stats.seconds = timer.elapsed();
    stats.levels = sweeps * t;
    stats.cell_updates =
        1LL * (nx_ - 2) * (ny_ - 2) * (nz_ - 2) * stats.levels;
    if (tel && sweeps > 0) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("core.lups").add(
          static_cast<std::uint64_t>(stats.cell_updates));
      reg.counter("core.sweeps").add(static_cast<std::uint64_t>(sweeps));
    }
    return stats;
  }

  [[nodiscard]] Grid3& result(Grid3& a, Grid3& b, int sweeps,
                              int base_level = 0) const {
    return (base_level + sweeps * cfg_.threads) % 2 == 0 ? a : b;
  }

  [[nodiscard]] const WavefrontConfig& config() const { return cfg_; }
  [[nodiscard]] int levels_per_sweep() const { return cfg_.threads; }

  /// Cache-resident working set of the moving wavefront: both grids hold
  /// 2t-1 active planes plus one plane of lookahead.
  [[nodiscard]] std::size_t working_set_bytes() const {
    const std::size_t plane =
        static_cast<std::size_t>(nx_) * ny_ * sizeof(double);
    return 2 * plane * static_cast<std::size_t>(2 * cfg_.threads);
  }

 private:
  WavefrontConfig cfg_;
  Op op_;
  int nx_, ny_, nz_;
  util::ThreadPool pool_;
};

/// The constant-coefficient instantiation (the comparison method).
using WavefrontJacobi = WavefrontSolver<JacobiOp>;

}  // namespace tb::core
