#include "obs/rundb.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"

namespace tb::obs {

namespace {

using util::json::escape;

void print_row(std::FILE* f, const RunRow& r, bool with_breakdown) {
  std::fprintf(f, "{\"schema\": %d, \"name\": \"%s\", ", kRunRowSchema,
               escape(r.name).c_str());
  std::fprintf(f, "\"bytes_per_lup\": %.6g, \"mlups\": %.6g", r.bytes_per_lup,
               r.mlups);
  if (r.predicted_mlups > 0.0)
    std::fprintf(f, ", \"predicted_mlups\": %.6g", r.predicted_mlups);
  if (with_breakdown && !r.phases.empty()) {
    std::fprintf(f, ", \"phases\": {");
    for (std::size_t i = 0; i < r.phases.size(); ++i)
      std::fprintf(f, "%s\"%s\": %.6g", i > 0 ? ", " : "",
                   escape(r.phases[i].first).c_str(), r.phases[i].second);
    std::fprintf(f, "}");
  }
  if (with_breakdown && !r.tags.empty()) {
    std::fprintf(f, ", \"tags\": {");
    for (std::size_t i = 0; i < r.tags.size(); ++i)
      std::fprintf(f, "%s\"%s\": \"%s\"", i > 0 ? ", " : "",
                   escape(r.tags[i].first).c_str(),
                   escape(r.tags[i].second).c_str());
    std::fprintf(f, "}");
  }
  std::fprintf(f, "}");
}

}  // namespace

bool write_bench_json(const std::string& bench,
                      const std::vector<RunRow>& rows) {
  const std::string path = "BENCH_" + bench + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "  ");
    print_row(f, rows[i], /*with_breakdown=*/false);
    std::fprintf(f, "%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), rows.size());
  if (enabled()) {
    std::vector<RunRow> tagged = rows;
    for (RunRow& r : tagged) r.tags.emplace_back("bench", bench);
    append_run_rows(default_rundb_path(), tagged);
  }
  return true;
}

bool append_run_rows(const std::string& path,
                     const std::vector<RunRow>& rows) {
  if (rows.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot append to %s\n", path.c_str());
    return false;
  }
  for (const RunRow& r : rows) {
    print_row(f, r, /*with_breakdown=*/true);
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  return true;
}

std::string default_rundb_path() {
  const char* p = std::getenv("TB_RUNDB");
  return (p != nullptr && p[0] != '\0') ? p : "tb_runs.jsonl";
}

std::vector<std::pair<std::string, double>> phase_seconds_snapshot() {
  return Registry::global().sums_with_suffix(".seconds");
}

}  // namespace tb::obs
