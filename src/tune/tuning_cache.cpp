#include "tune/tuning_cache.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/registry.hpp"
#include "obs/registry.hpp"
#include "util/json.hpp"

namespace tb::tune {

namespace {

namespace json = util::json;

constexpr int kFormatVersion = 1;

/// The persisted fields of one entry as (on-disk key, field) pairs, in
/// file order: load() and save() both walk this list, so a new tuner
/// axis is one line here.  `E` is the entry type, const for save().
/// Flags (bool, LbmStorage) are stored as 0/1.
static_assert(static_cast<int>(lbm::LbmStorage::kAA) == 1,
              "\"lbm_aa\": 1 is stored as the enumerator value");
template <class E, class F>
void for_each_field(E& e, F&& f) {
  f("nx", e.key.nx);
  f("ny", e.key.ny);
  f("nz", e.key.nz);
  f("op", e.key.op);
  f("constraint", e.key.variant);
  f("variant", e.plan.variant);
  f("teams", e.plan.cfg.pipeline.teams);
  f("team_size", e.plan.cfg.pipeline.team_size);
  f("T", e.plan.cfg.pipeline.steps_per_thread);
  f("bx", e.plan.cfg.pipeline.block.bx);
  f("by", e.plan.cfg.pipeline.block.by);
  f("bz", e.plan.cfg.pipeline.block.bz);
  f("dl", e.plan.cfg.pipeline.dl);
  f("du", e.plan.cfg.pipeline.du);
  f("dt", e.plan.cfg.pipeline.dt);
  f("bl_threads", e.plan.cfg.baseline.threads);
  f("bl_bx", e.plan.cfg.baseline.block.bx);
  f("bl_by", e.plan.cfg.baseline.block.by);
  f("bl_bz", e.plan.cfg.baseline.block.bz);
  f("nontemporal", e.plan.cfg.baseline.nontemporal);
  f("wf_threads", e.plan.cfg.wavefront.threads);
  f("lbm_aa", e.plan.cfg.lbm_storage);
  f("lbm_prefetch", e.plan.cfg.lbm_prefetch);
  f("predicted_mlups", e.plan.predicted_mlups);
  f("measured_mlups", e.plan.measured_mlups);
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
  if (!std::ifstream(path_)) return 0;  // no file yet: an empty cache

  // An unreadable file (garbage, or truncated by a crash) and a file from
  // another machine or format generation are both invalidations: the
  // whole cache is discarded, which examples/autotune surfaces as
  // distinct from a plain miss.  Only a parse failure warns.
  auto& invalidated = obs::Registry::global().counter("tune.cache.invalidated");
  json::Value root;
  try {
    root = json::parse_file(path_);  // errors carry path:line:col
    (void)root.as_object();
  } catch (const std::runtime_error& err) {
    std::fprintf(stderr, "warning: ignoring tuning cache %s (%s)\n",
                 path_.c_str(), err.what());
    invalidated.add(1);
    return 0;
  }
  const json::Value* version = root.find("version");
  const json::Value* signature = root.find("signature");
  if (version == nullptr || !version->is_number() ||
      version->as_number() != kFormatVersion || signature == nullptr ||
      !signature->is_string() || signature->as_string() != signature_) {
    invalidated.add(1);
    return 0;
  }
  const json::Value* list = root.find("entries");
  if (list == nullptr || !list->is_array()) return 0;

  for (const json::Value& o : list->as_array()) {
    // A wrong-typed, out-of-range or inadmissible entry is dropped alone;
    // a corrupt entry may never become a hit that then throws inside
    // solver construction.  Absent fields keep their defaults; keys no
    // field reads (a retired axis such as "wf_by") are ignored.
    Entry e;
    try {
      for_each_field(e, [&o](const char* key, auto& field) {
        using T = std::decay_t<decltype(field)>;
        const json::Value* v = o.find(key);
        if (v == nullptr) return;
        if constexpr (std::is_same_v<T, std::string>) {
          field = v->as_string();
        } else if constexpr (std::is_same_v<T, double>) {
          field = v->as_number();
          if (!std::isfinite(field)) throw std::runtime_error(key);
        } else {  // int, or a 0/1 flag (bool, LbmStorage)
          const int i = v->as_int();
          if (!std::is_same_v<T, int> && i != 0 && i != 1)
            throw std::runtime_error(key);
          field = static_cast<T>(i);
        }
      });
      e.plan.cfg.pipeline.validate();
      e.plan.cfg.wavefront.validate();
    } catch (const std::exception&) {
      continue;
    }
    // BaselineConfig has no validate(); mirror its constructor checks.
    const core::BaselineConfig& bl = e.plan.cfg.baseline;
    if (e.key.nx < 1 || e.key.ny < 1 || e.key.nz < 1 || bl.threads < 1 ||
        bl.block.bx < 1 || bl.block.by < 1 || bl.block.bz < 1 ||
        !core::apply_variant(e.plan.cfg, e.plan.variant))
      continue;
    entries_.push_back(std::move(e));
  }
  return entries_.size();
}

bool TuningCache::save() const {
  // Written beside the cache and renamed over it, so a crash mid-save
  // leaves the previous file rather than a truncated one.
  const std::string tmp = path_ + ".tmp";
  std::ofstream out(tmp);
  out.precision(17);  // doubles must round-trip exactly
  out << "{\n  \"version\": " << kFormatVersion << ",\n  \"signature\": \""
      << json::escape(signature_) << "\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const char* sep = "    {";  // one entry per line
    for_each_field(entries_[i], [&](const char* key, const auto& field) {
      using T = std::decay_t<decltype(field)>;
      out << sep << '"' << key << "\": ";
      if constexpr (std::is_same_v<T, std::string>)
        out << '"' << json::escape(field) << '"';
      else if constexpr (std::is_enum_v<T>)
        out << static_cast<int>(field);
      else
        out << field;  // bool prints as 0/1
      sep = ", ";
    });
    out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();
  if (out && std::rename(tmp.c_str(), path_.c_str()) == 0) return true;
  std::remove(tmp.c_str());
  std::fprintf(stderr, "warning: cannot write tuning cache %s\n",
               path_.c_str());
  return false;
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
