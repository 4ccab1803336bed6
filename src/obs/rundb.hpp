// Append-only run rows: the one sink every example, scenario case and
// cluster sweep reports through.
//
// append_run_rows(path, rows) appends one JSON object per line to a run
// database ($TB_RUNDB, default "tb_runs.jsonl").  Each row carries
// {"schema", "name", "bytes_per_lup", "mlups"}, the NodeModel-predicted
// "predicted_mlups" when one exists, the per-phase seconds breakdown
// (from the metrics registry) and free-form tags.  Strings are quoted
// through util::json::escape, so every line reads back with
// util::json::parse.
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
  /// (phase name, seconds) — typically phase_seconds_since(snapshot
  /// taken at the run's start).
  std::vector<std::pair<std::string, double>> phases;
  /// Free-form ("op", "lbm"), ("variant", "pipelined"), ("modeled", "1")
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Appends one JSONL object per row; creates the file if needed.
bool append_run_rows(const std::string& path, const std::vector<RunRow>& rows);

/// $TB_RUNDB when set, else "tb_runs.jsonl".
std::string default_rundb_path();

/// (histogram name, sum of samples) for every ".seconds" histogram in
/// the global registry.  Process-cumulative: a row for one run of many
/// takes phase_seconds_since instead.
std::vector<std::pair<std::string, double>> phase_seconds_snapshot();

/// The growth of every ".seconds" histogram sum since `before`, an
/// earlier phase_seconds_snapshot(): the per-phase breakdown of the work
/// in between, which a RunRow for that one run embeds.  Names missing
/// from `before` count from 0; names whose sum did not change are left
/// out.
std::vector<std::pair<std::string, double>> phase_seconds_since(
    const std::vector<std::pair<std::string, double>>& before);

}  // namespace tb::obs
