#include "obs/rundb.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "obs/registry.hpp"
#include "util/json.hpp"

namespace tb::obs {

namespace {

using util::json::escape;

void print_row(std::FILE* f, const RunRow& r) {
  std::fprintf(f, "{\"schema\": %d, \"name\": \"%s\", ", kRunRowSchema,
               escape(r.name).c_str());
  std::fprintf(f, "\"bytes_per_lup\": %.6g, \"mlups\": %.6g", r.bytes_per_lup,
               r.mlups);
  if (r.predicted_mlups > 0.0)
    std::fprintf(f, ", \"predicted_mlups\": %.6g", r.predicted_mlups);
  if (!r.phases.empty()) {
    std::fprintf(f, ", \"phases\": {");
    for (std::size_t i = 0; i < r.phases.size(); ++i)
      std::fprintf(f, "%s\"%s\": %.6g", i > 0 ? ", " : "",
                   escape(r.phases[i].first).c_str(), r.phases[i].second);
    std::fprintf(f, "}");
  }
  if (!r.tags.empty()) {
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

bool append_run_rows(const std::string& path,
                     const std::vector<RunRow>& rows) {
  if (rows.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot append to %s\n", path.c_str());
    return false;
  }
  for (const RunRow& r : rows) {
    print_row(f, r);
    std::fprintf(f, "\n");
  }
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "warning: cannot append to %s\n", path.c_str());
    return false;
  }
  return true;
}

std::string default_rundb_path() {
  const char* p = std::getenv("TB_RUNDB");
  return (p != nullptr && p[0] != '\0') ? p : "tb_runs.jsonl";
}

std::vector<std::pair<std::string, double>> phase_seconds_snapshot() {
  return Registry::global().sums_with_suffix(".seconds");
}

std::vector<std::pair<std::string, double>> phase_seconds_since(
    const std::vector<std::pair<std::string, double>>& before) {
  const std::map<std::string, double> start(before.begin(), before.end());
  std::vector<std::pair<std::string, double>> out;
  for (auto& [name, sum] : phase_seconds_snapshot()) {
    const auto it = start.find(name);
    const double base = it != start.end() ? it->second : 0.0;
    if (sum != base) out.emplace_back(std::move(name), sum - base);
  }
  return out;
}

}  // namespace tb::obs
