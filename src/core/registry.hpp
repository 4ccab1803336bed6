// Unified variant/operator registry: every (variant x operator)
// combination of the solver stack is constructible from string names.
//
// Variant names add one pseudo-variant on top of the Variant enum:
// "compressed" selects the pipelined schedule with the compressed-grid
// storage scheme (the facade treats storage as a pipeline tunable, but
// sweeps, benches and CLIs want it as a first-class row of the matrix).
//
//   reference | baseline | pipelined | compressed | wavefront
//     x
//   jacobi | varcoef | box27 | redblack | lbm | lbm:aa
//
// "lbm:aa" is the lbm operator under the in-place AA storage policy
// (SolverConfig::lbm_storage) — same physics, half the lattice bytes;
// shared-memory only (the dist registry rejects it).
//
// The registry is the single source of truth for the names: the
// examples' --variant/--operator flags, the autotuner's validation
// matrix, the bench sweep and the equivalence test suite all enumerate
// it instead of hardcoding subsets.
//
// On top of the concrete variants, *meta variants* are pluggable
// resolvers registered at runtime (e.g. "auto", installed by the
// src/tune/ subsystem): selecting one routes make_solver through a
// factory that picks and configures a concrete variant.  Meta variants
// are selectable (accepted by --variant and make_solver) but not
// enumerable through registered_variants(), so sweeps and equivalence
// matrices never trigger a tuning run by accident.
//
// The meta-variant table is the one piece of mutable state: a single
// process-wide map behind a shared mutex, so concurrent registration and
// lookup (a session pool resolving "auto" on several threads while a
// late subsystem installs its resolver) are well-defined.  make_solver
// copies the factory out under the lock and invokes it unlocked, so a
// meta factory that re-enters make_solver (the normal case: "auto"
// resolves to a concrete name and recurses) cannot deadlock.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"

namespace tb::util {
class Args;
}

namespace tb::core {

// ---- meta variants ----------------------------------------------------

/// Resolver behind a meta variant: receives the operator name, the
/// caller's config (with cfg.meta already cleared, so calling back into
/// make_solver with a concrete name cannot recurse), the initial grid
/// and the optional kappa field, and returns a fully constructed solver.
using MetaVariantFactory = std::function<StencilSolver(
    std::string_view op, SolverConfig cfg, const Grid3& initial,
    const Grid3* kappa)>;

/// All constructible variant names, in canonical (sweep) order.
[[nodiscard]] const std::vector<std::string>& registered_variants();

/// All constructible operator names, in canonical (sweep) order.
[[nodiscard]] const std::vector<std::string>& registered_operators();

/// Sets cfg.variant (and, for "compressed"/"pipelined", the pipeline
/// storage scheme) from a registry name.  Returns false on unknown names.
bool apply_variant(SolverConfig& cfg, std::string_view name);

/// Sets cfg.op from a registry name.  Returns false on unknown names.
bool apply_operator(SolverConfig& cfg, std::string_view name);

/// Registry name of the configured variant ("compressed" when the
/// pipelined variant uses the compressed-grid scheme).
[[nodiscard]] std::string variant_name(const SolverConfig& cfg);

/// Registry name of the configured operator ("lbm:aa" when the lbm
/// operator uses the in-place AA storage policy).
[[nodiscard]] std::string operator_name(const SolverConfig& cfg);

/// Applies the standard --variant / --operator command-line flags to a
/// config.  Throws std::invalid_argument naming the valid choices when a
/// flag value is not in the registry.
void configure_from_args(SolverConfig& cfg, const util::Args& args);

/// Constructs a solver from registry names.  `kappa` supplies the
/// auxiliary per-cell field for operators that take one: the material
/// field of "varcoef" (required), the geometry codes of "lbm" when
/// cfg.lbm_geometry_from_aux is set (required then; with the default
/// cavity geometry "lbm" ignores it, like "jacobi"/"box27"/"redblack"
/// do).  Meta-variant names resolve through their registered factory.
/// Throws std::invalid_argument on unknown names or a missing kappa.
[[nodiscard]] StencilSolver make_solver(std::string_view variant,
                                        std::string_view op,
                                        SolverConfig cfg,
                                        const Grid3& initial,
                                        const Grid3* kappa = nullptr);

/// Registers (or replaces) a meta variant under `name`.  Names must not
/// collide with concrete variant names.  Thread-safe.
void register_meta_variant(const std::string& name, MetaVariantFactory fn);

/// Currently registered meta-variant names, in registration order.  By
/// value (a reference would race with concurrent registration).
[[nodiscard]] std::vector<std::string> registered_meta_variants();

/// Concrete + meta names — the valid values of a --variant flag.
[[nodiscard]] std::vector<std::string> selectable_variants();

}  // namespace tb::core
