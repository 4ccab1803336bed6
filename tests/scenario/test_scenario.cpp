// Scenario config + engine: JSON expansion semantics (defaults,
// cross-product sweeps, repeats, shapes, consumer hooks) and the
// engine's bit-identity guarantee — every case run through the session
// matches a fresh StencilSolver on the same inputs.  Also pins the
// shipped scenario files: sweep.json must expand to the >= 12-case
// sweep the CI smoke job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "scenario/grids.hpp"
#include "scenario/scenario_config.hpp"
#include "scenario/scenario_engine.hpp"
#include "support/grid_test_utils.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::scenario {
namespace {

ScenarioConfig load(const std::string& text) {
  ScenarioConfig config;
  config.load_text(text);
  return config;
}

TEST(ScenarioConfig, DefaultsMergeUnderCases) {
  const ScenarioConfig c = load(R"({
    "name": "t",
    "defaults": { "steps": 5, "threads": 3, "variant": "baseline" },
    "cases": [ { "operator": "box27", "n": 10 },
               { "operator": "jacobi", "steps": 7 } ]
  })");
  ASSERT_EQ(c.cases().size(), 2u);
  EXPECT_EQ(c.name(), "t");
  EXPECT_EQ(c.cases()[0].op, "box27");
  EXPECT_EQ(c.cases()[0].steps, 5);
  EXPECT_EQ(c.cases()[0].threads, 3);
  EXPECT_EQ(c.cases()[0].nx, 10);
  EXPECT_EQ(c.cases()[1].steps, 7);  // case overrides default
  EXPECT_EQ(c.cases()[1].variant, "baseline");
}

TEST(ScenarioConfig, SweepListsCrossProduct) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "operator": ["jacobi", "box27"],
                 "variant": ["baseline", "wavefront"],
                 "n": [8, 12], "steps": 3 } ]
  })");
  ASSERT_EQ(c.cases().size(), 8u);  // 2 x 2 x 2
  // Document order: later axes vary fastest.
  EXPECT_EQ(c.cases()[0].op, "jacobi");
  EXPECT_EQ(c.cases()[0].variant, "baseline");
  EXPECT_EQ(c.cases()[0].nx, 8);
  EXPECT_EQ(c.cases()[1].nx, 12);
  EXPECT_EQ(c.cases()[7].op, "box27");
  EXPECT_EQ(c.cases()[7].variant, "wavefront");
  // Generated names are unique.
  for (std::size_t i = 0; i < c.cases().size(); ++i)
    for (std::size_t j = i + 1; j < c.cases().size(); ++j)
      EXPECT_NE(c.cases()[i].name, c.cases()[j].name);
}

TEST(ScenarioConfig, RepeatDuplicatesCases) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "operator": "jacobi", "n": 8, "repeat": 3 } ]
  })");
  ASSERT_EQ(c.cases().size(), 3u);
  EXPECT_EQ(c.cases()[0].repeat_index, 0);
  EXPECT_EQ(c.cases()[2].repeat_index, 2);
  EXPECT_EQ(c.cases()[2].repeat_count, 3);
  EXPECT_NE(c.cases()[0].name, c.cases()[1].name);
}

TEST(ScenarioConfig, CaseCountIsCappedBeforeExpansion) {
  // Each expanded case is held in memory before any runs (~250 B each):
  // two billion repeats, or a 10^9-case sweep, must be refused up front.
  EXPECT_THROW(load(R"({"cases": [ {"repeat": 2000000000} ]})"),
               std::invalid_argument);
  std::string list = "[1";
  for (int i = 2; i <= 1000; ++i) {
    list += ',';
    list += std::to_string(i);
  }
  list += ']';
  try {
    load(R"({"cases": [ {"n": )" + list + R"(, "steps": )" + list +
         R"(, "threads": )" + list + "} ]}");
    FAIL() << "a 1000 x 1000 x 1000 sweep must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("100000"), std::string::npos)
        << e.what();
  }
  // The cap bounds the whole file, not each case object.
  EXPECT_THROW(load(R"({"cases": [ {"repeat": 60000}, {"repeat": 60000} ]})"),
               std::invalid_argument);
}

TEST(ScenarioConfig, ShapeTripleWinsOverN) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "shape": [9, 7, 11], "n": 32 } ]
  })");
  EXPECT_EQ(c.cases()[0].nx, 9);
  EXPECT_EQ(c.cases()[0].ny, 7);
  EXPECT_EQ(c.cases()[0].nz, 11);
}

TEST(ScenarioConfig, ScalarCaseKeyShadowsListDefault) {
  const ScenarioConfig c = load(R"({
    "defaults": { "n": [8, 12, 16] },
    "cases": [ { "operator": "jacobi", "n": 10 } ]
  })");
  ASSERT_EQ(c.cases().size(), 1u);
  EXPECT_EQ(c.cases()[0].nx, 10);
}

TEST(ScenarioConfig, RejectsUnknownKeysAndSections) {
  EXPECT_THROW(load(R"({ "cases": [ { "opertor": "jacobi" } ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "tyop": 1, "cases": [ {} ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "name": "x" })"), std::invalid_argument);
  EXPECT_THROW(load(R"({ "cases": [ { "initial": "rand" } ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "cases": [ { "n": 0 } ] })"),
               std::invalid_argument);
}

/// Expects loading `text` to throw std::invalid_argument naming `key`.
void expect_rejected(const std::string& text, const std::string& key) {
  try {
    (void)load(text);
    ADD_FAILURE() << "must throw: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find('"' + key + '"'), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioConfig, EdgeIsBounded) {
  EXPECT_EQ(load(R"({ "cases": [ { "n": 1024 } ] })").cases()[0].nz, 1024);
  expect_rejected(R"({ "cases": [ { "n": 1025 } ] })", "n");
  expect_rejected(R"({ "cases": [ { "n": [16, 2000000000] } ] })", "n");
}

TEST(ScenarioConfig, ShapeEntriesAreBounded) {
  EXPECT_EQ(load(R"({ "cases": [ { "shape": [8, 1024, 8] } ] })")
                .cases()[0]
                .ny,
            1024);
  expect_rejected(R"({ "cases": [ { "shape": [8, 8, 1025] } ] })", "shape");
}

TEST(ScenarioConfig, StepsAreBounded) {
  EXPECT_EQ(load(R"({ "cases": [ { "steps": 1000000 } ] })").cases()[0].steps,
            1000000);
  expect_rejected(R"({ "cases": [ { "steps": 1000001 } ] })", "steps");
}

TEST(ScenarioConfig, ThreadsAreBounded) {
  EXPECT_EQ(load(R"({ "cases": [ { "threads": 1024 } ] })").cases()[0].threads,
            1024);
  expect_rejected(R"({ "defaults": { "threads": 1025 }, "cases": [ {} ] })",
                  "threads");
}

struct RecordingConsumer final : IScenarioConsumer {
  std::string seen;
  [[nodiscard]] std::string_view section() const override {
    return "custom";
  }
  void consume(const util::json::Value& v) override {
    seen = v.get("key").as_string();
  }
};

TEST(ScenarioConfig, ConsumerHooksClaimUnknownSections) {
  RecordingConsumer consumer;
  ScenarioConfig config;
  config.register_consumer(&consumer);
  config.load_text(R"({
    "custom": { "key": "value" },
    "cases": [ { "operator": "jacobi", "n": 8 } ]
  })");
  EXPECT_EQ(consumer.seen, "value");
  // Built-in sections cannot be claimed, nor can a section twice.
  RecordingConsumer other;
  EXPECT_THROW(config.register_consumer(&consumer),
               std::invalid_argument);
  struct CasesConsumer final : IScenarioConsumer {
    [[nodiscard]] std::string_view section() const override {
      return "cases";
    }
    void consume(const util::json::Value&) override {}
  } cases_consumer;
  EXPECT_THROW(config.register_consumer(&cases_consumer),
               std::invalid_argument);
}

TEST(ScenarioGrids, GeometryResolutionAndValidation) {
  CaseSpec spec;
  spec.op = "varcoef";
  EXPECT_EQ(resolve_geometry(spec), "slab");
  EXPECT_TRUE(make_aux(spec).has_value());
  spec.op = "lbm";
  EXPECT_EQ(resolve_geometry(spec), "none");
  EXPECT_FALSE(make_aux(spec).has_value());
  spec.geometry = "slab";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // material on lbm
  spec.op = "jacobi";
  spec.geometry = "cavity";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // codes on jacobi
  spec.op = "varcoef";
  spec.geometry = "none";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // varcoef bare
}

/// The builders' cells, one at a time and serially: the definition the
/// threaded builders must reproduce bit for bit.
core::Grid3 serial_reference(const CaseSpec& spec, const std::string& what) {
  const int nx = spec.nx, ny = spec.ny, nz = spec.nz;
  core::Grid3 g(nx, ny, nz);
  if (what == "pattern") {
    tb::test::fill_test_pattern_oracle(g);
    return g;
  }
  const int pitch = std::max(4, ny / 4), width = std::max(1, pitch / 3);
  const int bx = std::max(1, nx / 4), by = std::max(1, ny / 4),
            bz = std::max(1, nz / 4);
  const int i0 = (nx - bx) / 2, j0 = (ny - by) / 2, k0 = (nz - bz) / 2;
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        const bool face = i == 0 || j == 0 || k == 0 || i == nx - 1 ||
                          j == ny - 1 || k == nz - 1;
        double v = 0.0;
        if (what == "uniform") {
          v = 1.0;
        } else if (what == "hot-face") {
          v = i == 0 ? 1.0 : 0.0;
        } else if (what == "slab") {
          v = k >= nz / 3 && k < 2 * nz / 3 ? 50.0 : 1.0;
        } else if (what == "fibers") {
          v = j % pitch < width && k % pitch < width ? spec.kfiber : 1.0;
        } else {  // cavity, obstacle
          v = face ? (k == nz - 1 ? 2.0 : 1.0) : 0.0;
          if (what == "obstacle" && i >= i0 && i < i0 + bx && j >= j0 &&
              j < j0 + by && k >= k0 && k < k0 + bz)
            v = 1.0;
        }
        g.at(i, j, k) = v;
      }
  return g;
}

TEST(ScenarioGrids, BuildersBitIdenticalAcrossThreadCounts) {
  // An odd shape: no thread count from 2 to 4 divides nz = 23 evenly.
  CaseSpec spec;
  spec.nx = 37;
  spec.ny = 29;
  spec.nz = 23;
  spec.kfiber = 7.5;
  for (const std::string initial : {"pattern", "uniform", "hot-face"})
    for (int threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE(initial + " threads " + std::to_string(threads));
      spec.initial = initial;
      spec.threads = threads;
      tb::test::expect_grids_bitwise_equal(
          make_initial(spec), serial_reference(spec, initial));
    }
  for (const std::string geometry : {"slab", "fibers", "cavity", "obstacle"})
    for (int threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE(geometry + " threads " + std::to_string(threads));
      spec.op = geometry == "slab" || geometry == "fibers" ? "varcoef" : "lbm";
      spec.geometry = geometry;
      spec.threads = threads;
      const std::optional<core::Grid3> aux = make_aux(spec);
      ASSERT_TRUE(aux.has_value());
      tb::test::expect_grids_bitwise_equal(*aux,
                                           serial_reference(spec, geometry));
    }
}

TEST(ScenarioEngine, CasesBitIdenticalToFreshSolvers) {
  ScenarioConfig config;
  config.load_text(R"({
    "name": "bitident",
    "defaults": { "steps": 4, "threads": 2, "n": 10 },
    "cases": [
      { "operator": ["jacobi", "varcoef", "redblack"],
        "variant": ["baseline", "compressed"], "repeat": 2 },
      { "operator": "lbm", "variant": "pipelined", "initial": "uniform",
        "steps": 6 }
    ]
  })");
  ASSERT_GE(config.cases().size(), 12u);

  ScenarioEngine engine;
  const std::vector<CaseResult> results = engine.run(config);
  ASSERT_EQ(results.size(), config.cases().size());

  // After the full run each case's pooled solver holds the solution of
  // its (identical-input) last repeat; re-solving through the pool —
  // reset + advance, the path the repeats took — must match a fresh
  // StencilSolver bit for bit.
  for (const CaseSpec& spec : config.cases()) {
    const core::Grid3 initial = make_initial(spec);
    const auto aux = make_aux(spec);

    core::SolverConfig cfg;
    cfg.pipeline.teams = 1;
    cfg.pipeline.team_size = spec.threads;
    cfg.pipeline.block = {spec.nx, 16, 16};
    cfg.baseline.threads = spec.threads;
    cfg.wavefront.threads = spec.threads;
    cfg.lbm.omega = spec.omega;
    cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
    cfg.lbm_geometry_from_aux = geometry_is_codes(spec);
    core::StencilSolver fresh = core::make_solver(
        spec.variant, spec.op, cfg, initial, aux ? &*aux : nullptr);
    fresh.advance(spec.steps);

    core::SolveRequest req;
    req.variant = spec.variant;
    req.op = spec.op;
    req.cfg = cfg;
    req.initial = &initial;
    req.aux = aux ? &*aux : nullptr;
    req.steps = spec.steps;
    const core::SolveResult pooled = engine.session().solve(req);
    ASSERT_NE(pooled.solver, nullptr) << spec.name;
    EXPECT_TRUE(pooled.reused) << spec.name;
    tb::test::expect_grids_bitwise_equal(pooled.solver->solution(),
                                         fresh.solution());
  }

  // The repeats hit the pool during the run itself.
  EXPECT_GT(engine.session().solvers_reused(), 0u);
}

TEST(ScenarioEngine, MeanCountsCellsNotRowPadding) {
  // n = 21 pads each row to 24 doubles; a uniform-ones field must
  // average to 1 over its 21^3 cells, not to 21/24.
  CaseSpec spec;
  spec.op = "jacobi";
  spec.variant = "baseline";
  spec.nx = spec.ny = spec.nz = 21;
  spec.steps = 2;
  spec.initial = "uniform";
  ScenarioEngine engine;
  EXPECT_NEAR(engine.run_case(spec).mean, 1.0, 1e-12);
}

/// A case of `op`/`variant` on an nx*ny*nz grid, 3 steps on 2 threads.
CaseSpec case_of(const std::string& op, const std::string& variant, int nx,
                 int ny, int nz, const std::string& initial = "pattern",
                 const std::string& geometry = "auto",
                 double kfiber = 100.0) {
  CaseSpec c;
  c.op = op;
  c.variant = variant;
  c.nx = nx;
  c.ny = ny;
  c.nz = nz;
  c.steps = 3;
  c.initial = initial;
  c.geometry = geometry;
  c.kfiber = kfiber;
  c.name = op + "/" + variant + "/" + initial + "/" + geometry + "/" +
           std::to_string(kfiber) + "/" + std::to_string(nx);
  return c;
}

/// Every operator over two shapes, with initial conditions, materials,
/// kfiber values and lbm geometry codes that change within a shape.
std::vector<CaseSpec> reuse_cases() {
  return {
      case_of("jacobi", "baseline", 10, 10, 10),
      case_of("jacobi", "compressed", 10, 10, 10, "hot-face"),
      case_of("varcoef", "pipelined", 10, 10, 10, "pattern", "slab"),
      case_of("varcoef", "baseline", 10, 10, 10, "pattern", "fibers", 100.0),
      case_of("varcoef", "baseline", 10, 10, 10, "pattern", "fibers", 7.5),
      case_of("box27", "wavefront", 12, 10, 9),
      case_of("redblack", "compressed", 12, 10, 9, "uniform"),
      case_of("lbm", "baseline", 10, 10, 10, "uniform"),
      case_of("lbm", "pipelined", 10, 10, 10, "uniform", "cavity"),
      case_of("lbm:aa", "baseline", 10, 10, 10, "pattern", "obstacle"),
      case_of("lbm:aa", "pipelined", 12, 10, 9, "uniform", "obstacle"),
      case_of("lbm", "baseline", 12, 10, 9, "pattern", "cavity"),
      case_of("jacobi", "reference", 12, 10, 9, "uniform"),
  };
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ScenarioEngine, ReusedInputsGiveFreshEngineMeans) {
  const std::vector<CaseSpec> cases = reuse_cases();
  std::vector<double> want;
  for (const CaseSpec& c : cases) {
    ScenarioEngine fresh;
    want.push_back(fresh.run_case(c).mean);
  }
  std::vector<std::size_t> order(cases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937 rng(2718);
  std::shuffle(order.begin(), order.end(), rng);

  ScenarioEngine engine;
  for (int pass = 0; pass < 2; ++pass) {
    // The first pass builds one initial and one aux grid per shape and
    // fills them in place from then on; the second pass also hits the
    // session pool on every case.  Neither may change a result bit.
    const std::uint64_t allocs = util::buffer_alloc_count();
    for (const std::size_t i : order) {
      const CaseResult r = engine.run_case(cases[i]);
      EXPECT_TRUE(same_bits(r.mean, want[i]))
          << "pass " << pass << ": " << cases[i].name << " mean " << r.mean
          << " != " << want[i];
    }
    if (pass == 1) {
      EXPECT_EQ(util::buffer_alloc_count() - allocs, 0u)
          << "a second pass over the list allocated";
    }
  }
  // Whatever case ran just before, a case's held inputs are its own:
  // every ordered pair, so two cases that differ only in one key field
  // (kfiber, initial) also run back to back.
  for (const CaseSpec& before : cases)
    for (std::size_t i = 0; i < cases.size(); ++i) {
      (void)engine.run_case(before);
      EXPECT_TRUE(same_bits(engine.run_case(cases[i]).mean, want[i]))
          << cases[i].name << " after " << before.name;
    }
}

TEST(ScenarioEngine, InvalidGeometryThrowsWhenInputsAreHeld) {
  ScenarioEngine engine;
  const CaseSpec ok = case_of("varcoef", "baseline", 10, 10, 10, "pattern",
                              "slab");
  const double mean = engine.run_case(ok).mean;
  (void)engine.run_case(case_of("lbm", "baseline", 10, 10, 10, "pattern",
                                "cavity"));
  // The shape holds an initial grid, a slab and, last, cavity codes: a
  // held grid must not let a bad operator/geometry pair through.
  EXPECT_THROW((void)engine.run_case(case_of("lbm", "baseline", 10, 10, 10,
                                             "pattern", "slab")),
               std::invalid_argument);
  EXPECT_THROW((void)engine.run_case(case_of("jacobi", "baseline", 10, 10,
                                             10, "pattern", "cavity")),
               std::invalid_argument);
  EXPECT_THROW((void)engine.run_case(case_of("varcoef", "baseline", 10, 10,
                                             10, "pattern", "none")),
               std::invalid_argument);
  // An unknown initial throws too, and leaves nothing stale behind.
  CaseSpec bad_initial = ok;
  bad_initial.initial = "no-such-initial";
  EXPECT_THROW((void)engine.run_case(bad_initial), std::invalid_argument);
  EXPECT_TRUE(same_bits(engine.run_case(ok).mean, mean));
}

TEST(ScenarioEngine, MeanBitsDoNotDependOnThreads) {
  // nz = 23: neither 2 nor 3 threads split the planes evenly.
  for (const std::string op : {"jacobi", "lbm"}) {
    CaseSpec spec = case_of(op, "reference", 17, 13, 23);
    spec.threads = 1;
    ScenarioEngine one;
    const double mean1 = one.run_case(spec).mean;
    spec.threads = 3;
    ScenarioEngine three;
    const double mean3 = three.run_case(spec).mean;
    EXPECT_TRUE(same_bits(mean1, mean3)) << op << ": " << mean1 << " vs "
                                         << mean3;

    // The definition: each z-plane summed in j, i order, the plane sums
    // added in k order, divided by the cell count.
    core::SolverConfig cfg;
    core::StencilSolver fresh =
        core::make_solver("reference", op, cfg, make_initial(spec));
    fresh.advance(spec.steps);
    const core::Grid3& u = fresh.solution();
    double sum = 0.0;
    for (int k = 0; k < u.nz(); ++k) {
      double plane = 0.0;
      for (int j = 0; j < u.ny(); ++j)
        for (int i = 0; i < u.nx(); ++i) plane += u.at(i, j, k);
      sum += plane;
    }
    const double want = sum / (17.0 * 13 * 23);
    EXPECT_TRUE(same_bits(mean3, want)) << op << ": " << mean3 << " vs "
                                        << want;
  }
}

TEST(ScenarioEngine, ShippedSweepScenarioExpandsAndRuns) {
  const std::string dir = TB_SCENARIO_DIR;
  ScenarioConfig config;
  config.load_file(dir + "/sweep.json");
  EXPECT_EQ(config.name(), "sweep");
  // The acceptance floor: one run_scenario invocation on sweep.json is
  // a >= 12-case sweep in a single process.
  EXPECT_GE(config.cases().size(), 12u);

  int repeats = 0;
  for (const CaseSpec& spec : config.cases())
    if (spec.repeat_count > 1) ++repeats;
  EXPECT_GT(repeats, 0) << "sweep.json must contain repeat shapes";
}

TEST(ScenarioEngine, ShippedScenariosParse) {
  const std::string dir = TB_SCENARIO_DIR;
  for (const char* file :
       {"lid_cavity.json", "quickstart.json", "composite.json"}) {
    ScenarioConfig config;
    config.load_file(dir + "/" + file);
    EXPECT_FALSE(config.cases().empty()) << file;
  }
  // lid_cavity.json must carry an LBM geometry-code case.
  ScenarioConfig lid;
  lid.load_file(dir + "/lid_cavity.json");
  bool codes = false;
  for (const CaseSpec& spec : lid.cases())
    if (geometry_is_codes(spec)) codes = true;
  EXPECT_TRUE(codes);
}

}  // namespace
}  // namespace tb::scenario
