#include "tune/tuning_cache.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "core/registry.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"

namespace tb::tune {

namespace {

using util::json::escape;

constexpr int kFormatVersion = 1;

/// Key/value view of one parsed JSON object (values kept as raw text).
using FlatObject = std::map<std::string, std::string>;

/// Minimal tolerant scanner for the cache format: tracks brace depth,
/// collects "key": value pairs into the top-level object (depth 1) or
/// the current entry object (depth 2+), and flushes an entry whenever
/// its closing brace returns to depth 1.  Anything unexpected is
/// skipped, so hand-edited or truncated files degrade gracefully.
void scan(const std::string& text, FlatObject& top,
          std::vector<FlatObject>& entries) {
  FlatObject current;
  std::string key;
  bool have_key = false;
  int depth = 0;
  std::size_t i = 0;

  auto read_string = [&](std::size_t& pos) {
    std::string s;
    ++pos;  // opening quote
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
      s.push_back(text[pos++]);
    }
    if (pos < text.size()) ++pos;  // closing quote
    return s;
  };
  auto emit = [&](std::string value) {
    if (!have_key) return;
    if (depth <= 1)
      top[key] = std::move(value);
    else
      current[key] = std::move(value);
    have_key = false;
  };

  while (i < text.size()) {
    const char c = text[i];
    if (c == '"') {
      std::string s = read_string(i);
      std::size_t j = i;
      while (j < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[j])))
        ++j;
      if (j < text.size() && text[j] == ':') {
        key = std::move(s);
        have_key = true;
        i = j + 1;
      } else {
        emit(std::move(s));
      }
    } else if (c == '{') {
      ++depth;
      ++i;
    } else if (c == '}') {
      --depth;
      if (depth == 1 && !current.empty()) {
        entries.push_back(std::move(current));
        current.clear();
      }
      ++i;
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) ||
              text[j] == '-' || text[j] == '+' || text[j] == '.' ||
              text[j] == 'e' || text[j] == 'E'))
        ++j;
      emit(text.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
}

int as_int(const FlatObject& o, const char* k, int def) {
  const auto it = o.find(k);
  if (it == o.end()) return def;
  try {
    return std::stoi(it->second);
  } catch (...) {
    return def;
  }
}

double as_double(const FlatObject& o, const char* k, double def) {
  const auto it = o.find(k);
  if (it == o.end()) return def;
  try {
    return std::stod(it->second);
  } catch (...) {
    return def;
  }
}

std::string as_string(const FlatObject& o, const char* k,
                      const std::string& def = {}) {
  const auto it = o.find(k);
  return it == o.end() ? def : it->second;
}

}  // namespace

std::string machine_signature(const topo::MachineSpec& spec) {
  std::ostringstream os;
  os << "tb-tune-v" << kFormatVersion << "|" << spec.name << "|s"
     << spec.sockets << "|c" << spec.cores_per_socket << "|l3="
     << spec.shared_cache_bytes << "|l2=" << spec.private_cache_bytes
     << "|line=" << spec.cache_line_bytes;
  return os.str();
}

std::string default_cache_path() {
  const char* env = std::getenv("TB_TUNE_CACHE");
  return (env != nullptr && env[0] != '\0') ? env
                                            : "tb_tuning_cache.json";
}

std::size_t TuningCache::load() {
  entries_.clear();
  std::ifstream in(path_);
  if (!in) return 0;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  FlatObject top;
  std::vector<FlatObject> objects;
  scan(text, top, objects);
  if (as_string(top, "signature") != signature_ ||
      as_int(top, "version", 0) != kFormatVersion) {
    // A non-empty file from another machine or format generation: the
    // whole cache is discarded, which examples/autotune surfaces as an
    // invalidation (distinct from a plain miss on an empty cache).
    if (!text.empty())
      obs::Registry::global().counter("tune.cache.invalidated").add(1);
    return 0;
  }

  for (const FlatObject& o : objects) {
    Entry e;
    e.key.nx = as_int(o, "nx", 0);
    e.key.ny = as_int(o, "ny", 0);
    e.key.nz = as_int(o, "nz", 0);
    e.key.op = as_string(o, "op", "jacobi");
    e.key.variant = as_string(o, "constraint");
    e.plan.variant = as_string(o, "variant");
    if (e.key.nx < 1 || e.key.ny < 1 || e.key.nz < 1) continue;
    if (!core::apply_variant(e.plan.cfg, e.plan.variant)) continue;

    core::PipelineConfig& pl = e.plan.cfg.pipeline;
    pl.teams = as_int(o, "teams", pl.teams);
    pl.team_size = as_int(o, "team_size", pl.team_size);
    pl.steps_per_thread = as_int(o, "T", pl.steps_per_thread);
    pl.block.bx = as_int(o, "bx", pl.block.bx);
    pl.block.by = as_int(o, "by", pl.block.by);
    pl.block.bz = as_int(o, "bz", pl.block.bz);
    pl.dl = as_int(o, "dl", pl.dl);
    pl.du = as_int(o, "du", pl.du);
    pl.dt = as_int(o, "dt", pl.dt);

    core::BaselineConfig& bl = e.plan.cfg.baseline;
    bl.threads = as_int(o, "bl_threads", bl.threads);
    bl.block.bx = as_int(o, "bl_bx", bl.block.bx);
    bl.block.by = as_int(o, "bl_by", bl.block.by);
    bl.block.bz = as_int(o, "bl_bz", bl.block.bz);
    bl.nontemporal = as_int(o, "nontemporal", bl.nontemporal ? 1 : 0) != 0;

    core::WavefrontConfig& wf = e.plan.cfg.wavefront;
    wf.threads = as_int(o, "wf_threads", wf.threads);
    wf.by = as_int(o, "wf_by", wf.by);

    e.plan.cfg.lbm_storage = as_int(o, "lbm_aa", 0) != 0
                                 ? lbm::LbmStorage::kAA
                                 : lbm::LbmStorage::kTwoLattice;
    e.plan.cfg.lbm_prefetch = as_int(o, "lbm_prefetch", 0);

    e.plan.predicted_mlups = as_double(o, "predicted_mlups", 0.0);
    e.plan.measured_mlups = as_double(o, "measured_mlups", 0.0);

    try {  // never let a corrupt entry produce an invalid schedule
      pl.validate();
      wf.validate();
      // BaselineConfig has no validate(); mirror its constructor checks.
      if (bl.threads < 1 || bl.block.bx < 1 || bl.block.by < 1 ||
          bl.block.bz < 1)
        continue;
    } catch (const std::exception&) {
      continue;
    }
    entries_.push_back(std::move(e));
  }
  return entries_.size();
}

bool TuningCache::save() const {
  std::ofstream out(path_);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write tuning cache %s\n",
                 path_.c_str());
    return false;
  }
  out.precision(17);  // doubles must round-trip exactly
  out << "{\n  \"version\": " << kFormatVersion << ",\n  \"signature\": \""
      << escape(signature_) << "\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const core::PipelineConfig& pl = e.plan.cfg.pipeline;
    const core::BaselineConfig& bl = e.plan.cfg.baseline;
    const core::WavefrontConfig& wf = e.plan.cfg.wavefront;
    out << "    {\"nx\": " << e.key.nx << ", \"ny\": " << e.key.ny
        << ", \"nz\": " << e.key.nz << ", \"op\": \"" << escape(e.key.op)
        << "\", \"constraint\": \"" << escape(e.key.variant) << "\",\n"
        << "     \"variant\": \"" << escape(e.plan.variant) << "\","
        << " \"teams\": " << pl.teams << ", \"team_size\": " << pl.team_size
        << ", \"T\": " << pl.steps_per_thread << ", \"bx\": " << pl.block.bx
        << ", \"by\": " << pl.block.by << ", \"bz\": " << pl.block.bz
        << ", \"dl\": " << pl.dl << ", \"du\": " << pl.du
        << ", \"dt\": " << pl.dt << ",\n"
        << "     \"bl_threads\": " << bl.threads << ", \"bl_bx\": "
        << bl.block.bx << ", \"bl_by\": " << bl.block.by << ", \"bl_bz\": "
        << bl.block.bz << ", \"nontemporal\": " << (bl.nontemporal ? 1 : 0)
        << ", \"wf_threads\": " << wf.threads << ", \"wf_by\": " << wf.by
        << ", \"lbm_aa\": "
        << (e.plan.cfg.lbm_storage == lbm::LbmStorage::kAA ? 1 : 0)
        << ", \"lbm_prefetch\": " << e.plan.cfg.lbm_prefetch
        << ",\n     \"predicted_mlups\": " << e.plan.predicted_mlups
        << ", \"measured_mlups\": " << e.plan.measured_mlups << "}"
        << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

std::optional<Candidate> TuningCache::find(const Problem& key) const {
  for (const Entry& e : entries_)
    if (e.key == key) return e.plan;
  return std::nullopt;
}

void TuningCache::put(const Problem& key, const Candidate& plan) {
  for (Entry& e : entries_)
    if (e.key == key) {
      e.plan = plan;
      return;
    }
  entries_.push_back(Entry{key, plan});
}

}  // namespace tb::tune
