// Pipelined temporal blocking on a "compressed grid" (Sec. 1.3), generic
// over the stencil operator.
//
// Instead of two grids A/B, a single allocation holds the solution; every
// update writes its result shifted by (-1,-1,-1) relative to the source
// cell.  One team sweep of S = n*t*T levels therefore drifts the data
// window by S cells toward the array origin; the next sweep shifts by
// (+1,+1,+1) per level and drifts back, which requires reverse traversal
// to stay race-free: descending blocks, planes and rows.  Within a row the
// operator runs in ascending i (see the StencilOp contract; only Box27Op,
// which reads the row it overwrites, picks its own order).  The paper
// descended within rows too.  The allocation is (n+S)^3-ish:
// only one grid plus an S-cell margin, saving nearly half the memory and
// the corresponding write-allocate bandwidth.
//
// Dirichlet boundary cells are not recomputed but must shift with the data
// window, so each level *copies* the boundary faces of its window — cheap
// surface work compared to the volume update.
//
// Operator generality: the solver hands the operator margin-shifted row
// pointers but LOGICAL (j, k) coordinates, so operators with auxiliary
// per-cell fields (VarCoefOp's face coefficients) read them at the fixed
// logical position while the solution data drifts through the allocation.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/engine.hpp"
#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "core/pipeline.hpp"  // RunStats
#include "core/stencil_op.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "topo/placement.hpp"
#include "util/slices.hpp"
#include "util/timer.hpp"

namespace tb::core {

/// Single-grid (compressed) pipelined solver, templated on the StencilOp.
///
/// The array is the solver's state: load once, then run repeatedly.
/// Consecutive run() calls continue where the last one stopped (an odd
/// sweep count leaves margin 0, so the next call starts with a backward
/// sweep), and row() reads the current level in place.
///
/// Usage:
///   CompressedSolver<JacobiOp> solver(cfg, nx, ny, nz);
///   solver.load(initial);       // level-0 data incl. boundary
///   solver.run(sweeps);         // as often as needed
///   solver.row(j, k)[i];        // current level, no copy
///   solver.store(result_out);   // copy of the current level, on demand
template <class Op>
class CompressedSolver {
 public:
  CompressedSolver(const PipelineConfig& cfg, int nx, int ny, int nz,
                   Op op = Op{})
      : op_(op),
        nx_(nx),
        ny_(ny),
        nz_(nz),
        shift_span_(cfg.levels_per_sweep()),
        store_(nx + shift_span_, ny + shift_span_, nz + shift_span_),
        margin_(shift_span_),
        engine_(cfg,
                BlockPlan(cfg.block,
                          full_clips(nx, ny, nz, cfg.levels_per_sweep()),
                          /*bidirectional=*/true)) {
    if (cfg.scheme != GridScheme::kCompressed)
      throw std::invalid_argument(
          "CompressedSolver: config.scheme must be kCompressed");
    // Zeroed under the pipelined schemes' placement (Sec. 1.3): every
    // thread sweeps every block, so the pages interleave round-robin.
    topo::touch_pages({store_.data()}, store_.size(),
                      topo::PagePlacement::kRoundRobin, cfg.total_threads());
  }

  /// Copies a level-0 state (shape nx*ny*nz) into the working array.
  void load(const Grid3& initial) {
    if (initial.nx() != nx_ || initial.ny() != ny_ || initial.nz() != nz_)
      throw std::invalid_argument("CompressedSolver::load: shape mismatch");
    margin_ = shift_span_;
    copy_window(initial, 0, store_, margin_);
  }

  /// Runs `sweeps` team sweeps (alternating shift directions).  The
  /// operator sees levels counted from the start of this call (see the
  /// StencilOp contract); a time-dependent operator's LevelOrigin adds
  /// the absolute base.
  RunStats run(int sweeps) {
    RunStats stats;
    const bool tel = obs::enabled();
    obs::Histogram* sweep_h =
        tel ? &obs::Registry::global().histogram("core.sweep.seconds")
            : nullptr;
    util::Timer timer;
    const int levels_per_sweep = engine_.config().levels_per_sweep();
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      obs::ScopedTimer st(sweep_h);
      obs::Span span("compressed.sweep", "core");
      const bool forward = (margin_ == shift_span_);
      const int m_start = margin_;
      const int sweep_base = sweep * levels_per_sweep;
      engine_.run_sweep(forward,
                        [&](int /*thread*/, int level, const Box& w) {
                          process_window(level, sweep_base + level, w,
                                         forward, m_start);
                        });
      margin_ = forward ? m_start - levels_per_sweep
                        : m_start + levels_per_sweep;
    }
    stats.seconds = timer.elapsed();
    stats.levels = sweeps * levels_per_sweep;
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

  /// Copies the current level out into `out` (shape nx*ny*nz).
  void store(Grid3& out) const {
    if (out.nx() != nx_ || out.ny() != ny_ || out.nz() != nz_)
      throw std::invalid_argument("CompressedSolver::store: shape mismatch");
    copy_window(store_, margin_, out, 0);
  }

  /// Row (j, k) of the current level: element i is cell (i, j, k).
  /// Valid until the next load() or run().
  [[nodiscard]] const double* row(int j, int k) const {
    return store_.row(j + margin_, k + margin_) + margin_;
  }

  /// Current data offset: cell (i,j,k) lives at array (i+m, j+m, k+m).
  [[nodiscard]] int margin() const { return margin_; }
  [[nodiscard]] const PipelineConfig& config() const {
    return engine_.config();
  }
  /// Bytes of the single working array (for memory-saving accounting).
  [[nodiscard]] std::size_t storage_bytes() const {
    return store_.size() * sizeof(double);
  }

 private:
  /// Every level's window may cover the full domain [0, n) including the
  /// boundary faces (which are copied, not stenciled).
  static std::vector<LevelClip> full_clips(int nx, int ny, int nz,
                                           int levels) {
    LevelClip c;
    c.lo = {0, 0, 0};
    c.hi = {nx, ny, nz};
    return std::vector<LevelClip>(static_cast<std::size_t>(levels), c);
  }

  /// Copies the nx*ny*nz window at diagonal offset `from` of `src` to
  /// offset `to` of `dst` row by row, z-slices split over the team's
  /// threads (plain copies: the split cannot change a value).
  void copy_window(const Grid3& src, int from, Grid3& dst, int to) const {
    util::for_each_slice(
        engine_.config().total_threads(), 0, nz_, [&](int, int k0, int k1) {
          for (int k = k0; k < k1; ++k)
            for (int j = 0; j < ny_; ++j)
              std::copy_n(src.row(j + from, k + from) + from, nx_,
                          dst.row(j + to, k + to) + to);
        });
  }

  void process_window(int level, int op_level, const Box& w, bool forward,
                      int m_start) {
    // Margins of the destination (this level) and source (previous level).
    const int m_dst = forward ? m_start - level : m_start + level;
    const int m_src = forward ? m_dst + 1 : m_dst - 1;

    const int last_x = nx_ - 1, last_y = ny_ - 1, last_z = nz_ - 1;
    // Stencil sub-range of the window in x (boundary cells handled apart).
    const int sx0 = std::max(w.lo[0], 1);
    const int sx1 = std::min(w.hi[0], last_x);

    auto src_row = [&](int j, int k) {
      return store_.row(j + m_src, k + m_src) + m_src;
    };
    auto dst_row = [&](int j, int k) {
      return store_.row(j + m_dst, k + m_dst) + m_dst;
    };

    // The order across rows must match the shift direction: descending
    // for the (+1,+1,+1) sweeps, ascending otherwise.  A row itself runs
    // in op_.row()'s own order.
    const int k_first = forward ? w.lo[2] : w.hi[2] - 1;
    const int k_last = forward ? w.hi[2] : w.lo[2] - 1;
    const int step = forward ? 1 : -1;

    for (int k = k_first; k != k_last; k += step) {
      const bool k_bound = (k == 0 || k == last_z);
      const int j_first = forward ? w.lo[1] : w.hi[1] - 1;
      const int j_last = forward ? w.hi[1] : w.lo[1] - 1;
      for (int j = j_first; j != j_last; j += step) {
        double* dst = dst_row(j, k);
        const double* src = src_row(j, k);
        if (k_bound || j == 0 || j == last_y) {
          // Boundary row: shift (copy) the Dirichlet values.
          for (int i = w.lo[0]; i < w.hi[0]; ++i) dst[i] = src[i];
          continue;
        }
        // The shifted dst row is the source row (j-1, k-1) resp.
        // (j+1, k+1), one cell over, whose cells Box27Op's corners read.
        // Forward, dst[last_x] lands on a corner of the row's last stencil
        // cell; backward, dst[0] on one of its first two.  That copy waits
        // for the stencil; the other edge lands outside every read.
        if (forward && w.lo[0] == 0) dst[0] = src[0];
        if (!forward && w.hi[0] == nx_) dst[last_x] = src[last_x];
        if (sx0 < sx1)
          op_.row(dst, src, src_row(j - 1, k), src_row(j + 1, k),
                  src_row(j, k - 1), src_row(j, k + 1), op_level, j, k, sx0,
                  sx1);
        if (forward && w.hi[0] == nx_) dst[last_x] = src[last_x];
        if (!forward && w.lo[0] == 0) dst[0] = src[0];
      }
    }
  }

  Op op_;
  int nx_, ny_, nz_;
  int shift_span_;  ///< S = levels per sweep = maximum drift
  Grid3 store_;
  int margin_;      ///< current offset of cell (0,0,0) in the array
  PipelineEngine engine_;
};

/// The constant-coefficient instantiation (the paper's compressed grid).
using CompressedJacobi = CompressedSolver<JacobiOp>;

}  // namespace tb::core
