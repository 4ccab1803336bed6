// Re-entrant solver sessions: run many solves back-to-back in one
// process, reusing grids, operator side channels and thread pools across
// cases.
//
// A SolverSession owns a pool of StencilSolver objects keyed by the
// parts of a request that determine allocation and results (shape,
// variant, operator, tunables).  The first solve of a key constructs the
// solver; every repeat rewinds it with StencilSolver::reset — same
// buffers, same thread pool, same NUMA page homing — and replays from
// level 0.  Results are bit-identical to a fresh solver per case, which
// is what tests/core/test_session.cpp pins down, and repeat shapes of
// the "auto" meta variant replay the session's tuning cache with zero
// probes (tests/tune/test_session_tuning.cpp).
//
// Varcoef solvers share their face coefficients: the session keeps one
// set per (shape, kappa bits) with a copy of that kappa, and binds every
// pooled varcoef solver of that shape and material to it.  A solve
// compares its kappa bitwise with the held ones; a match builds nothing.
// A set is never written while two solvers read it, so per shape and
// material the faces cost three grids plus the kappa copy, however many
// variants run on it.
//
// The scenario engine (src/scenario/) is the main consumer: one
// run_scenario process sweeps dozens of cases through one session.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/registry.hpp"
#include "core/solver.hpp"

namespace tb::core {

/// Session-wide knobs, fixed at construction.
struct SessionOptions {
  /// Tuning-cache file shared by every "auto" solve of this session
  /// (forwarded into SolverConfig::tune_cache_path).  Empty = the
  /// tuner's default resolution (TB_TUNE_CACHE env, else its built-in
  /// path).
  std::string tune_cache_path;

  /// Sets SolverConfig::telemetry on every solver the session builds.
  bool telemetry = false;
};

/// One solve: which (variant, operator) to run on which data for how
/// many steps.  The grids are borrowed for the duration of the call.
struct SolveRequest {
  std::string variant;          ///< concrete or meta name ("auto", ...)
  std::string op;               ///< operator name ("jacobi", "lbm:aa", ...)
  SolverConfig cfg;             ///< tunables; variant/op fields are
                                ///< overwritten from the strings above
  const Grid3* initial = nullptr;  ///< level-0 data (required)
  const Grid3* aux = nullptr;   ///< kappa / geometry codes (operator-dependent)
  int steps = 1;                ///< time levels to advance
};

/// What one solve produced.
struct SolveResult {
  RunStats stats{};             ///< timing of the advance() call
  /// Pooled solver holding the solution; valid until the session dies
  /// or the same key is solved again.  Solving other keys never changes
  /// its material: a varcoef solver shares its face-coefficient set only
  /// with solvers on the same kappa bits, and a set is rebuilt in place
  /// only when no other solver reads it, so advancing this solver again
  /// continues on its own kappa.
  StencilSolver* solver = nullptr;
  bool reused = false;          ///< true when the pool had the key already
};

/// The arena: pooled solvers plus the shared tuning-cache handle.
/// Re-entrant in the sense that any number of sessions can coexist in
/// one process (no globals beyond the obs/tune counters they tick) —
/// though one session object is not itself thread-safe; give each
/// thread its own.
class SolverSession {
 public:
  explicit SolverSession(SessionOptions opts = {});
  ~SolverSession();

  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;
  SolverSession(SolverSession&&) noexcept;
  SolverSession& operator=(SolverSession&&) noexcept;

  /// Runs one case: pool hit -> reset + advance, miss -> construct
  /// (through make_solver, so meta variants resolve) +
  /// advance.  Ticks obs counters session.solver.create / .reuse.
  /// Throws std::invalid_argument on nullptr initial, unknown names, or
  /// an operator that needs an aux grid without one.
  SolveResult solve(const SolveRequest& req);

  /// Pooled solvers currently alive.
  [[nodiscard]] std::size_t pool_size() const;

  /// Lifetime counts of pool misses (constructions) and hits (resets).
  [[nodiscard]] std::uint64_t solvers_created() const;
  [[nodiscard]] std::uint64_t solvers_reused() const;

  [[nodiscard]] const SessionOptions& options() const;

  /// The pool key for a request: every config field that changes results
  /// or allocation (shape, variant, operator, schedule tunables, lbm
  /// physics) — and nothing that doesn't (grid contents).  Exposed for
  /// tests.
  [[nodiscard]] static std::string fingerprint(const SolveRequest& req);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tb::core
