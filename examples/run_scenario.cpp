// Scenario runner: executes a JSON scenario file — a whole batch of
// (operator, variant, shape) cases, sweeps and repeats — through ONE
// re-entrant solver session in one process.
//
//   $ ./run_scenario --scenario scenarios/sweep.json [--tune-cache f]
//
// Repeat (shape, config) pairs reuse the pooled solver (grids, side
// channels, thread pools) via StencilSolver::reset, and "auto" cases
// share the session's tuning cache, so repeat shapes replay their plan
// with zero probes.  With TB_TELEMETRY=1 every case appends one
// model-vs-measured row to the run database ($TB_RUNDB) and records a
// scenario.case trace span, and every "cluster" sweep point appends
// its modeled rows — the same sinks the benches and examples use.
// This binary replaces the one-main()-per-workload pattern: new
// workloads are .json files under scenarios/, not new C++.
#include <cstdio>

#include "obs/obs.hpp"
#include "scenario/cluster_section.hpp"
#include "scenario/scenario_engine.hpp"
#include "tune/planner.hpp"  // linking tb_tune registers --variant auto
#include "util/args.hpp"

int main(int argc, char** argv) {
  const tb::util::Args args(argc, argv);
  tb::util::StandardFlags flags;
  flags.parse(args);
  if (flags.scenario.empty()) {
    std::fprintf(stderr,
                 "usage: run_scenario --scenario <file.json> "
                 "[--tune-cache <file>]\n");
    return 2;
  }
  // "cluster" sections route modeled scaling sweeps through the
  // discrete-event simnet backend; with telemetry on, their rows are
  // appended to the run database next to the case rows.
  tb::scenario::ClusterSection cluster(/*verbose=*/true);
  const int rc = tb::scenario::run_scenario_file(
      flags.scenario, args.get("tune-cache", ""), {&cluster});
  const std::size_t n = cluster.rows().size();
  if (n > 0 && tb::obs::enabled())
    std::printf("(%zu modeled cluster rows appended to %s)\n", n,
                tb::obs::default_rundb_path().c_str());
  else if (n > 0)
    std::printf("(%zu modeled cluster rows not saved: set TB_TELEMETRY=1 "
                "to append them to the run database)\n", n);
  return rc;
}
