// "cluster" scenario section: weak/strong-scaling sweeps through the
// discrete-event simnet backend, registered as an IScenarioConsumer so
// scenario files can mix solver cases with modeled cluster sweeps (or
// ship sweeps alone — "cases" is optional when a consumer section is
// present).
//
// Schema (scalars shown; "topology" and "ranks" may be lists, and the
// section value may be an array of such objects — one sweep each):
//
//   "cluster": {
//     "topology": "fat-tree",   // fat-tree|torus|cloud, or a list
//     "ranks": [8, 512, 4096],  // rank counts, int or list
//     "mode": "weak",           // weak|strong
//     "n": 32,                  // interior cells/dim (per rank if weak)
//     "halo": 1,
//     "epochs": 4,
//     "operator": "jacobi",     // or "op"; sets the fields per halo cell
//     "proc_lups": 2.0e9,
//     "ppn": 1                  // ranks per node of the fabric
//   }
//
// Sweeps run at consume() time; results() and rows() expose the
// outcome.  When telemetry is enabled, each consume() appends the rows
// of that call (three per point, tagged modeled=1) to the run database
// at obs::default_rundb_path(), the same rule solver cases follow.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/rundb.hpp"
#include "scenario/scenario_config.hpp"
#include "simnet/event/cluster_sweep.hpp"

namespace tb::scenario {

class ClusterSection final : public IScenarioConsumer {
 public:
  /// `verbose` prints one stdout line per sweep point.
  explicit ClusterSection(bool verbose = false) : verbose_(verbose) {}

  [[nodiscard]] std::string_view section() const override {
    return "cluster";
  }

  void consume(const util::json::Value& value) override;

  [[nodiscard]] const std::vector<simnet::event::SweepResult>& results()
      const {
    return results_;
  }
  [[nodiscard]] const std::vector<obs::RunRow>& rows() const {
    return rows_;
  }

 private:
  void run_group(const util::json::Value& group);

  bool verbose_;
  std::vector<simnet::event::SweepResult> results_;
  std::vector<obs::RunRow> rows_;
};

}  // namespace tb::scenario
