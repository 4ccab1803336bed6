// Scenario engine: runs an expanded scenario case list through one
// core::SolverSession, so repeat (shape, operator) pairs reuse grids,
// side channels, thread pools and the tuning cache instead of paying
// construction per case.
//
// The case inputs are reused the same way: the engine holds at most one
// initial grid and one aux grid per shape (nx, ny, nz), each with the
// key of the spec fields its builder read (grids.hpp: initial_key,
// aux_key).  A case whose key matches reuses the held grid as it is; a
// different key refills it in place, so a sweep over kfiber or initial
// conditions allocates one grid per shape, not one per case.  The
// operator/geometry check runs for every case either way.
//
// Per case the engine opens an obs trace span ("scenario.case"),
// observes the wall time into the scenario.case.seconds histogram, and
// — when telemetry is on — streams one model-vs-measured RunRow into
// the run database, tagged with the scenario and case ids.  That makes
// a scenario sweep land in the same tb_runs.jsonl rows the benches and
// examples write, with no new output format.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/scenario_config.hpp"

namespace tb::scenario {

/// Outcome of one case.
struct CaseResult {
  CaseSpec spec;
  core::RunStats stats{};
  bool reused = false;       ///< solver came from the session pool
  std::string resolved_variant;  ///< concrete variant after meta resolution
  double mean = 0.0;         ///< mean of the final solution (sanity value)
};

/// Per-engine knobs beyond the session's.
struct EngineOptions {
  core::SessionOptions session{};
  bool print_cases = false;  ///< one stdout line per case (the runner's UI)
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(EngineOptions opts = {});

  /// Runs one case through the session.  Throws on invalid specs
  /// (unknown names, impossible geometry/operator combinations).
  CaseResult run_case(const CaseSpec& spec);

  /// Runs every case of the scenario in document order and returns the
  /// per-case results.  Run rows are tagged scenario=<config.name()>.
  std::vector<CaseResult> run(const ScenarioConfig& config);

  [[nodiscard]] core::SolverSession& session() { return session_; }

 private:
  /// A case input held for reuse, with the key it was built for.
  struct HeldGrid {
    std::string key;
    core::Grid3 grid;
  };
  using Shape = std::array<int, 3>;  ///< (nx, ny, nz)

  /// The grid `held` holds for the spec's shape, filled by `fill` for
  /// `key`: returned as it is when its key is `key`, refilled in place
  /// when the key differs, allocated on the shape's first case.
  template <class Fill>
  static const core::Grid3& held_input(std::map<Shape, HeldGrid>& held,
                                       const CaseSpec& spec, std::string key,
                                       Fill&& fill);

  EngineOptions opts_;
  core::SolverSession session_;
  std::string scenario_name_ = "unnamed";  ///< tags the run rows
  std::map<Shape, HeldGrid> initial_;  ///< last initial grid per shape
  std::map<Shape, HeldGrid> aux_;      ///< last aux grid per shape
};

/// Convenience entry the runner and the scenario-capable examples
/// share: load `path`, run every case with per-case stdout lines and a
/// summary, return a process exit code (0 ok, 1 on any error, printed
/// to stderr).  `tune_cache` seeds SessionOptions::tune_cache_path.
/// `consumers` are registered on the config before loading, so files
/// may carry their sections (e.g. "cluster" sweeps); a file consisting
/// only of consumer sections runs zero solver cases, which is fine.
int run_scenario_file(const std::string& path,
                      const std::string& tune_cache = {},
                      const std::vector<IScenarioConsumer*>& consumers = {});

}  // namespace tb::scenario
