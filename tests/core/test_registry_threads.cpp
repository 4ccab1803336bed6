// The variant registry's meta-variant table: concurrent registration
// and lookup must be race-free, and meta factories may re-enter
// make_solver() while resolving.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::core {
namespace {

TEST(RegistryThreads, ConcurrentRegistrationAndLookup) {
  constexpr int kThreads = 8;
  constexpr int kNamesPerThread = 16;

  std::atomic<bool> go{false};
  std::atomic<int> lookups{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kNamesPerThread; ++i) {
        const std::string name =
            "mt-meta-" + std::to_string(t) + "-" + std::to_string(i);
        register_meta_variant(
            name, [](std::string_view op, SolverConfig cfg,
                     const Grid3& initial, const Grid3* kappa) {
              cfg.variant = Variant::kReference;
              return make_solver("reference", op, std::move(cfg), initial,
                                 kappa);
            });
        // Interleave reads with the writes of every other thread.
        SolverConfig probe;
        if (apply_variant(probe, name)) ++lookups;
        (void)registered_meta_variants();
        (void)selectable_variants();
      }
    });
  go = true;
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(lookups.load(), kThreads * kNamesPerThread);
  const std::vector<std::string> metas = registered_meta_variants();
  int mine = 0;
  for (const std::string& m : metas)
    if (m.rfind("mt-meta-", 0) == 0) ++mine;
  EXPECT_EQ(mine, kThreads * kNamesPerThread);
}

TEST(RegistryThreads, MetaFactoryMayReenterMake) {
  register_meta_variant(
      "reenter-reference",
      [](std::string_view op, SolverConfig cfg, const Grid3& initial,
         const Grid3* kappa) {
        // Re-entering make_solver() under the registration lock would
        // deadlock; the registry must invoke factories unlocked.
        return make_solver("reference", op, std::move(cfg), initial, kappa);
      });

  const Grid3 initial = tb::test::make_initial(8);
  StencilSolver solver = make_solver("reenter-reference", "jacobi",
                                     SolverConfig{}, initial, nullptr);
  solver.advance(2);

  StencilSolver fresh =
      make_solver("reference", "jacobi", SolverConfig{}, initial, nullptr);
  fresh.advance(2);
  tb::test::expect_grids_bitwise_equal(solver.solution(),
                                       fresh.solution());
}

TEST(RegistryThreads, ConcreteNamesAreReserved) {
  EXPECT_THROW(register_meta_variant(
                   "baseline",
                   [](std::string_view, SolverConfig, const Grid3&,
                      const Grid3*) -> StencilSolver {
                     throw std::logic_error("never called");
                   }),
               std::invalid_argument);
}

TEST(RegistryThreads, UnknownNamesStillThrow) {
  const Grid3 initial = tb::test::make_initial(6);
  EXPECT_THROW(make_solver("no-such-variant", "jacobi", SolverConfig{},
                           initial, nullptr),
               std::invalid_argument);
  EXPECT_THROW(make_solver("baseline", "no-such-op", SolverConfig{},
                           initial, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
