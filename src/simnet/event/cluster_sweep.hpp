// Weak/strong-scaling sweeps through the discrete-event cluster
// backend: build the per-rank halo programs for a decomposition, run
// them over a chosen fabric, and report modeled performance rows (obs
// RunRow) for the run database.
//
// This is the O(10^4)-rank replacement for the thread-backed Fig. 6
// loops: a 10^4-rank weak-scaling point over any built-in topology
// completes in seconds of wall-clock (the scaling-smoke CI job budgets
// it), because ranks are state machines, not threads.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/rundb.hpp"
#include "topo/fabric.hpp"

namespace tb::simnet::event {

struct ClusterSweepSpec {
  std::string topology = "fat-tree";  ///< see topo::fabric_kinds()
  std::vector<int> ranks{8, 64, 512, 4096};
  bool weak = true;  ///< true: n per rank; false: n is the global grid
  int n = 32;        ///< interior cells per dimension (per rank or global)
  int halo = 1;      ///< ghost width = levels per epoch
  int epochs = 4;
  std::string op = "jacobi";  ///< sets fields/rank via operator_traffic
  double proc_lups = 2.0e9;   ///< modeled per-rank update rate [LUP/s]
  topo::FabricParams fabric{};
};

/// One scaling data point of a sweep.
struct SweepPoint {
  int ranks = 0;
  std::array<int, 3> proc_dims{1, 1, 1};
  std::array<int, 3> global_n{0, 0, 0};
  double epoch_seconds = 0.0;  ///< slowest rank, averaged over epochs
  double glups = 0.0;          ///< modeled useful GLUP/s
  /// Parallel efficiency vs the comm-free single-rank epoch: weak
  /// scaling compares equal per-rank work, strong scaling divides the
  /// speedup by the rank count.
  double efficiency = 0.0;
  double wall_seconds = 0.0;  ///< host time the engine run took
  std::uint64_t events = 0;
  std::uint64_t flows = 0;
  double events_per_sec = 0.0;  ///< engine throughput (events / wall)
};

struct SweepResult {
  ClusterSweepSpec spec;
  std::vector<SweepPoint> points;
};

/// Runs every rank count of the spec through the event engine.
[[nodiscard]] SweepResult run_sweep(const ClusterSweepSpec& spec);

/// Run-database rows, three per point:
///   "<mode>/<topology>/<ranks>"      modeled MLUP/s
///   "eff/<mode>/<topology>/<ranks>"  parallel efficiency (0..1)
///   "events/<topology>/<ranks>"      engine throughput [M events/s]
/// all tagged {"modeled","1"},{"sim","event"} plus topology/mode/ranks.
[[nodiscard]] std::vector<obs::RunRow> sweep_rows(const SweepResult& result);

}  // namespace tb::simnet::event
