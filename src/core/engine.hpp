// Pipeline execution engine.
//
// Drives n*t threads through one *team sweep*: every thread traverses the
// full block sequence of the BlockPlan; pipeline stage p (thread p, in
// team-major order) performs time levels p*T+1 .. (p+1)*T on each block.
// The engine owns only scheduling and synchronization; what "performing a
// level on a window" means is supplied by the caller (two-grid update,
// compressed-grid update, traffic simulation, ...).
//
// Sweeps can run forward (ascending block order) or backward (descending);
// the backward direction exists for the compressed-grid scheme whose even
// sweeps shift data by (+1,+1,+1) and therefore must traverse in reverse.
#pragma once

#include <barrier>
#include <functional>
#include <memory>

#include "core/blocks.hpp"
#include "core/config.hpp"
#include "core/sync.hpp"
#include "util/thread_pool.hpp"

namespace tb::core {

/// Callback invoked for every non-empty (thread, level, window).
/// `level` is 1-based within the team sweep; the global time level is the
/// caller's business.  Must be thread-safe across distinct windows.
using ProcessFn = std::function<void(int thread, int level, const Box& win)>;

/// Executes team sweeps of a fixed BlockPlan on a persistent thread pool.
class PipelineEngine {
 public:
  PipelineEngine(const PipelineConfig& cfg, BlockPlan plan);

  /// Runs one team sweep; blocks until all threads completed all blocks.
  /// All windows of all levels handled by a thread on one block are
  /// processed before the thread's progress counter advances.
  void run_sweep(bool forward, const ProcessFn& process);

  [[nodiscard]] const BlockPlan& plan() const { return plan_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }

 private:
  void sweep_relaxed(bool forward, const ProcessFn& process);
  void sweep_barrier(bool forward, const ProcessFn& process);

  /// Processes the T levels of stage `p` on block counter `c` (0-based in
  /// traversal order).
  void process_block(int p, long long c, bool forward,
                     const ProcessFn& process) const;

  PipelineConfig cfg_;
  BlockPlan plan_;
  util::ThreadPool pool_;
  ProgressCounters counters_;
  std::vector<DistanceBounds> bounds_;
  std::vector<long long> barrier_offsets_;  // spatial offsets, barrier mode
};

}  // namespace tb::core
