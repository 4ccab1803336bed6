// Session x tuner interplay: "auto" solves through one SolverSession
// share the session's tuning cache (SolverConfig::tune_cache_path), so
// a fresh session replays cached plans with zero probes, and repeat
// shapes inside one session never call the planner at all — the pool
// hit resets the already-resolved solver.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "core/session.hpp"
#include "obs/registry.hpp"
#include "support/grid_test_utils.hpp"
#include "tune/planner.hpp"  // links tb_tune: installs "auto"

namespace tb::tune {
namespace {

using tb::test::make_initial;

std::string temp_cache(const std::string& name) {
  return ::testing::TempDir() + "tb_session_" + name + "_" +
         std::to_string(::getpid()) + ".json";
}

core::SolveRequest auto_request(const core::Grid3& initial, int steps) {
  core::SolveRequest req;
  req.variant = "auto";
  req.op = "jacobi";
  req.initial = &initial;
  req.steps = steps;
  return req;
}

TEST(SessionTuning, RepeatShapesRunZeroProbes) {
  const std::string cache = temp_cache("repeat");
  std::remove(cache.c_str());

  core::SessionOptions opts;
  opts.tune_cache_path = cache;
  core::SolverSession session(opts);

  const core::Grid3 initial = make_initial(12);

  // First auto solve: tunes (probes > 0 unless a cache pre-existed —
  // it doesn't, the file was removed) and persists the plan.
  const std::uint64_t probes0 = obs::Registry::global().counter_value("tune.probes");
  const core::SolveResult first = session.solve(auto_request(initial, 4));
  ASSERT_NE(first.solver, nullptr);
  EXPECT_GT(obs::Registry::global().counter_value("tune.probes"), probes0);

  // Repeat shape in the SAME session: pool hit — the planner must not
  // run at all (no probes, not even a cache hit lookup).
  const std::uint64_t probes1 = obs::Registry::global().counter_value("tune.probes");
  const std::uint64_t hits1 = obs::Registry::global().counter_value("tune.cache.hit");
  const core::SolveResult again = session.solve(auto_request(initial, 4));
  EXPECT_TRUE(again.reused);
  EXPECT_EQ(obs::Registry::global().counter_value("tune.probes"), probes1);
  EXPECT_EQ(obs::Registry::global().counter_value("tune.cache.hit"), hits1);

  // FRESH session on the same cache file: the plan replays from cache
  // with zero probes (the tuned-now path persisted it).
  core::SolverSession fresh_session(opts);
  const std::uint64_t probes2 = obs::Registry::global().counter_value("tune.probes");
  const std::uint64_t hits2 = obs::Registry::global().counter_value("tune.cache.hit");
  const core::SolveResult replay =
      fresh_session.solve(auto_request(initial, 4));
  ASSERT_NE(replay.solver, nullptr);
  EXPECT_FALSE(replay.reused);
  EXPECT_EQ(obs::Registry::global().counter_value("tune.probes"), probes2)
      << "cached shape must tune with zero probes";
  EXPECT_GT(obs::Registry::global().counter_value("tune.cache.hit"), hits2);

  // Both sessions' solvers agree bit for bit with each other.
  tb::test::expect_grids_bitwise_equal(first.solver->solution(),
                                       replay.solver->solution());
  std::remove(cache.c_str());
}

TEST(SessionTuning, AutoMatchesReferenceThroughSession) {
  const std::string cache = temp_cache("ref");
  std::remove(cache.c_str());

  core::SessionOptions opts;
  opts.tune_cache_path = cache;
  core::SolverSession session(opts);

  const core::Grid3 initial = make_initial(10);
  const core::SolveResult solved = session.solve(auto_request(initial, 5));
  ASSERT_NE(solved.solver, nullptr);

  core::SolveRequest ref = auto_request(initial, 5);
  ref.variant = "reference";
  const core::SolveResult oracle = session.solve(ref);
  tb::test::expect_grids_bitwise_equal(solved.solver->solution(),
                                       oracle.solver->solution());
  std::remove(cache.c_str());
}

TEST(SessionTuning, AutoVarcoefReadsTheSessionMaterialSet) {
  // "auto" resolves through make_solver, which builds a private set; the
  // session binds the solver to its own set for the material instead.
  const std::string cache = temp_cache("varcoef");
  std::remove(cache.c_str());

  core::SessionOptions opts;
  opts.tune_cache_path = cache;
  core::SolverSession session(opts);

  const core::Grid3 initial = make_initial(10);
  const core::Grid3 kappa = tb::test::make_kappa(10);
  core::SolveRequest ref = auto_request(initial, 5);
  ref.variant = "reference";
  ref.op = "varcoef";
  ref.aux = &kappa;
  const core::SolveResult oracle = session.solve(ref);

  core::SolveRequest req = ref;
  req.variant = "auto";
  for (const bool reused : {false, true}) {
    const std::uint64_t probes =
        obs::Registry::global().counter_value("tune.probes");
    const core::SolveResult solved = session.solve(req);
    ASSERT_NE(solved.solver, nullptr);
    EXPECT_EQ(solved.reused, reused);
    // Only the first solve tunes.
    EXPECT_EQ(obs::Registry::global().counter_value("tune.probes") > probes,
              !reused);
    EXPECT_EQ(solved.solver->coefficients(), oracle.solver->coefficients());
    tb::test::expect_grids_bitwise_equal(solved.solver->solution(),
                                         oracle.solver->solution());
  }
  std::remove(cache.c_str());
}

}  // namespace
}  // namespace tb::tune
