#include "core/registry.hpp"

#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <stdexcept>

#include "util/args.hpp"

namespace tb::core {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i)
    os << (i ? "|" : "") << names[i];
  return os.str();
}

[[noreturn]] void throw_unknown(const char* axis, std::string_view name,
                                const std::vector<std::string>& valid) {
  std::ostringstream os;
  os << "unknown " << axis << " '" << name << "' (valid: " << join(valid)
     << ")";
  throw std::invalid_argument(os.str());
}

/// The meta-variant table.  A function-local static, so its first use is
/// race-free even during static initialization (tb_tune's
/// auto_variant.cpp registers "auto" from a static initializer in another
/// translation unit).
struct MetaTable {
  std::shared_mutex mu;
  std::map<std::string, MetaVariantFactory> factories;
  std::vector<std::string> names;  ///< registration order
};

MetaTable& meta_table() {
  static MetaTable table;
  return table;
}

bool is_meta(std::string_view name) {
  MetaTable& t = meta_table();
  const std::shared_lock lock(t.mu);
  return t.factories.contains(std::string(name));
}

}  // namespace

const std::vector<std::string>& registered_variants() {
  static const std::vector<std::string> kNames{
      "reference", "baseline", "pipelined", "compressed", "wavefront"};
  return kNames;
}

const std::vector<std::string>& registered_operators() {
  static const std::vector<std::string> kNames{"jacobi", "varcoef", "box27",
                                               "redblack", "lbm", "lbm:aa"};
  return kNames;
}

void register_meta_variant(const std::string& name, MetaVariantFactory fn) {
  for (const std::string& concrete : registered_variants())
    if (name == concrete)
      throw std::invalid_argument("register_meta_variant: '" + name +
                                  "' is a concrete variant name");
  MetaTable& t = meta_table();
  const std::unique_lock lock(t.mu);
  if (!t.factories.contains(name)) t.names.push_back(name);
  t.factories[name] = std::move(fn);
}

std::vector<std::string> registered_meta_variants() {
  MetaTable& t = meta_table();
  const std::shared_lock lock(t.mu);
  return t.names;
}

std::vector<std::string> selectable_variants() {
  std::vector<std::string> names = registered_variants();
  MetaTable& t = meta_table();
  const std::shared_lock lock(t.mu);
  for (const std::string& m : t.names) names.push_back(m);
  return names;
}

bool apply_variant(SolverConfig& cfg, std::string_view name) {
  if (name == "reference") {
    cfg.variant = Variant::kReference;
  } else if (name == "baseline") {
    cfg.variant = Variant::kBaseline;
  } else if (name == "pipelined") {
    cfg.variant = Variant::kPipelined;
    cfg.pipeline.scheme = GridScheme::kTwoGrid;
  } else if (name == "compressed") {
    cfg.variant = Variant::kPipelined;
    cfg.pipeline.scheme = GridScheme::kCompressed;
  } else if (name == "wavefront") {
    cfg.variant = Variant::kWavefront;
  } else if (is_meta(name)) {
    // Resolution needs the problem (grid shape), which only make_solver
    // sees; until then the config just remembers the request.
    cfg.meta = std::string(name);
    return true;
  } else {
    return false;
  }
  cfg.meta.clear();
  return true;
}

bool apply_operator(SolverConfig& cfg, std::string_view name) {
  if (name == "jacobi") {
    cfg.op = Operator::kJacobi;
  } else if (name == "varcoef") {
    cfg.op = Operator::kVarCoef;
  } else if (name == "box27") {
    cfg.op = Operator::kBox27;
  } else if (name == "redblack") {
    cfg.op = Operator::kRedBlack;
  } else if (name == "lbm") {
    // Deliberately leaves cfg.lbm_storage untouched: "lbm" names the
    // operator, the storage policy is a config knob (the tuner probes
    // candidates whose cfg carries either policy under this one name).
    cfg.op = Operator::kLbm;
  } else if (name == "lbm:aa") {
    cfg.op = Operator::kLbm;
    cfg.lbm_storage = lbm::LbmStorage::kAA;
  } else {
    return false;
  }
  return true;
}

std::string operator_name(const SolverConfig& cfg) {
  if (cfg.op == Operator::kLbm &&
      cfg.lbm_storage == lbm::LbmStorage::kAA)
    return "lbm:aa";
  return to_string(cfg.op);
}

std::string variant_name(const SolverConfig& cfg) {
  if (!cfg.meta.empty()) return cfg.meta;
  if (cfg.variant == Variant::kPipelined &&
      cfg.pipeline.scheme == GridScheme::kCompressed)
    return "compressed";
  return to_string(cfg.variant);
}

void configure_from_args(SolverConfig& cfg, const util::Args& args) {
  const std::string variant = args.get_choice("variant", variant_name(cfg),
                                              selectable_variants());
  const std::string op = args.get_choice("operator", operator_name(cfg),
                                         registered_operators());
  apply_variant(cfg, variant);  // validated by get_choice
  apply_operator(cfg, op);
}

StencilSolver make_solver(std::string_view variant, std::string_view op,
                          SolverConfig cfg, const Grid3& initial,
                          const Grid3* kappa) {
  // Copy the factory out under the lock and call it unlocked: meta
  // factories re-enter make_solver with the concrete name they resolved
  // to.
  MetaVariantFactory factory;
  {
    MetaTable& t = meta_table();
    const std::shared_lock lock(t.mu);
    const auto it = t.factories.find(std::string(variant));
    if (it != t.factories.end()) factory = it->second;
  }
  if (factory) {
    if (!apply_operator(cfg, op))
      throw_unknown("operator", op, registered_operators());
    cfg.meta.clear();
    return factory(op, std::move(cfg), initial, kappa);
  }
  if (!apply_variant(cfg, variant))
    throw_unknown("variant", variant, selectable_variants());
  if (!apply_operator(cfg, op))
    throw_unknown("operator", op, registered_operators());
  const bool needs_aux =
      cfg.op == Operator::kVarCoef ||
      (cfg.op == Operator::kLbm && cfg.lbm_geometry_from_aux);
  if (needs_aux) {
    if (kappa == nullptr)
      throw std::invalid_argument(
          cfg.op == Operator::kVarCoef
              ? "make_solver: operator 'varcoef' needs a kappa field"
              : "make_solver: operator 'lbm' with lbm_geometry_from_aux "
                "needs the geometry-code grid");
    return StencilSolver(cfg, initial, *kappa);
  }
  return StencilSolver(cfg, initial);
}

}  // namespace tb::core
