// Append-only run rows: the one sink every example and scenario reports
// through.
//
// Two outputs from the same RunRow record:
//
//  - write_bench_json("simnet", rows) writes BENCH_simnet.json, the
//    array the cluster sweep (examples/cluster_scaling, the scenario
//    "cluster" section) leaves for CI to check and archive.  Keys are
//    {"name", "bytes_per_lup", "mlups"} plus a "schema" version field
//    and — when a model prediction exists — "predicted_mlups".  Strings
//    are quoted through util::json::escape, so every row reads back
//    with util::json::parse.
//
//  - append_run_rows(path, rows) appends one JSON object per line to a
//    run database ($TB_RUNDB, default "tb_runs.jsonl"), carrying the
//    full record: measured and NodeModel-predicted MLUP/s, the
//    per-phase seconds breakdown (from the metrics registry), and
//    free-form tags.  write_bench_json forwards here automatically
//    when telemetry is enabled.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace tb::obs {

/// Version of the row layout, emitted as "schema" in every row.
inline constexpr int kRunRowSchema = 1;

struct RunRow {
  RunRow() = default;
  RunRow(std::string name_, double bytes_per_lup_, double mlups_,
         double predicted_mlups_ = 0.0)
      : name(std::move(name_)),
        bytes_per_lup(bytes_per_lup_),
        mlups(mlups_),
        predicted_mlups(predicted_mlups_) {}

  std::string name;            ///< "<variant>/<operator>" or a case id
  double bytes_per_lup = 0.0;  ///< modeled main-memory traffic
  double mlups = 0.0;          ///< measured (or modeled) MLUP/s
  /// NodeModel prediction for the same configuration; <= 0 means "no
  /// prediction" and the field is omitted from output.
  double predicted_mlups = 0.0;
  /// (phase name, seconds) — typically phase_seconds_snapshot().
  std::vector<std::pair<std::string, double>> phases;
  /// Free-form ("op", "lbm"), ("variant", "pipelined"), ("bench", ...)
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Writes `BENCH_<bench>.json` in the working directory (and, when
/// telemetry is enabled, appends the rows to default_rundb_path()).
/// Returns false after printing a warning when the file cannot be
/// written.
bool write_bench_json(const std::string& bench,
                      const std::vector<RunRow>& rows);

/// Appends one JSONL object per row; creates the file if needed.
bool append_run_rows(const std::string& path, const std::vector<RunRow>& rows);

/// $TB_RUNDB when set, else "tb_runs.jsonl".
std::string default_rundb_path();

/// (histogram name, sum of samples) for every ".seconds" histogram in
/// the global registry — the per-phase breakdown a RunRow embeds.
std::vector<std::pair<std::string, double>> phase_seconds_snapshot();

}  // namespace tb::obs
