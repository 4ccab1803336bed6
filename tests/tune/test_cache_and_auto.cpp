// Persistent-cache and auto-variant properties: plans round-trip to
// disk and come back field-exact, a machine-signature change or a
// corrupt file invalidates entries instead of erroring, the planner's
// second call performs zero timed probes, and `--variant auto` (the
// registry meta variant installed by tb_tune) produces solutions
// bit-identical to the naive reference for every operator.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "obs/registry.hpp"
#include "support/grid_test_utils.hpp"
#include "topo/machine.hpp"
#include "tune/planner.hpp"
#include "tune/tuning_cache.hpp"

namespace tb::tune {
namespace {

using tb::test::make_initial;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tb_tune_" + name + "_" +
         std::to_string(::getpid()) + ".json";
}

Problem cube(int n, std::string op = "jacobi") {
  Problem p;
  p.nx = p.ny = p.nz = n;
  p.op = std::move(op);
  return p;
}

Candidate pipelined_plan() {
  Candidate c;
  c.variant = "compressed";
  core::apply_variant(c.cfg, "compressed");
  c.cfg.pipeline.teams = 1;
  c.cfg.pipeline.team_size = 2;
  c.cfg.pipeline.steps_per_thread = 2;
  c.cfg.pipeline.block = {32, 8, 8};
  c.cfg.pipeline.du = 4;
  c.cfg.baseline.threads = 2;
  c.predicted_mlups = 321.5;
  c.measured_mlups = 654.25;
  return c;
}

TEST(TuningCache, RoundTripsPlansFieldExact) {
  const std::string path = temp_path("roundtrip");
  const std::string sig = machine_signature(topo::nehalem_ep());
  {
    TuningCache cache(path, sig);
    cache.put(cube(32), pipelined_plan());
    Candidate wf;
    wf.variant = "wavefront";
    core::apply_variant(wf.cfg, "wavefront");
    wf.cfg.wavefront.threads = 3;
    wf.measured_mlups = 99.5;
    cache.put(cube(48, "varcoef"), wf);
    // A bare-"lbm" problem whose winning schedule carries the AA
    // storage policy: the policy must survive the disk round trip, or a
    // cache hit would silently deploy the two-lattice layout.
    Candidate aa = pipelined_plan();
    aa.cfg.lbm_storage = lbm::LbmStorage::kAA;
    cache.put(cube(40, "lbm"), aa);
    ASSERT_TRUE(cache.save());
  }
  TuningCache cache(path, sig);
  EXPECT_EQ(cache.load(), 3u);

  const auto hit = cache.find(cube(32));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, "compressed");
  EXPECT_EQ(hit->cfg.variant, core::Variant::kPipelined);
  EXPECT_EQ(hit->cfg.pipeline.scheme, core::GridScheme::kCompressed);
  EXPECT_EQ(hit->cfg.pipeline.team_size, 2);
  EXPECT_EQ(hit->cfg.pipeline.steps_per_thread, 2);
  EXPECT_EQ(hit->cfg.pipeline.block.bx, 32);
  EXPECT_EQ(hit->cfg.pipeline.du, 4);
  EXPECT_EQ(hit->cfg.baseline.threads, 2);
  EXPECT_DOUBLE_EQ(hit->predicted_mlups, 321.5);
  EXPECT_DOUBLE_EQ(hit->measured_mlups, 654.25);

  const auto wf_hit = cache.find(cube(48, "varcoef"));
  ASSERT_TRUE(wf_hit.has_value());
  EXPECT_EQ(wf_hit->variant, "wavefront");
  EXPECT_EQ(wf_hit->cfg.wavefront.threads, 3);
  EXPECT_EQ(wf_hit->cfg.lbm_storage, lbm::LbmStorage::kTwoLattice);

  const auto aa_hit = cache.find(cube(40, "lbm"));
  ASSERT_TRUE(aa_hit.has_value());
  EXPECT_EQ(aa_hit->cfg.lbm_storage, lbm::LbmStorage::kAA);

  EXPECT_FALSE(cache.find(cube(33)).has_value());
  EXPECT_FALSE(cache.find(cube(32, "varcoef")).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, ConstraintIsPartOfTheKey) {
  const std::string path = temp_path("constraint");
  TuningCache cache(path, "sig");
  Problem constrained = cube(32);
  constrained.variant = "wavefront";
  cache.put(cube(32), pipelined_plan());
  EXPECT_FALSE(cache.find(constrained).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, SignatureChangeInvalidatesEverything) {
  const std::string path = temp_path("signature");
  {
    TuningCache cache(path,
                      machine_signature(topo::nehalem_ep()));
    cache.put(cube(32), pipelined_plan());
    ASSERT_TRUE(cache.save());
  }
  TuningCache other(path, machine_signature(topo::core2_like()));
  EXPECT_EQ(other.load(), 0u);
  EXPECT_FALSE(other.find(cube(32)).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, MissingOrGarbageFilesDegradeToEmpty) {
  TuningCache missing(temp_path("does_not_exist"), "sig");
  EXPECT_EQ(missing.load(), 0u);

  const std::string path = temp_path("garbage");
  {
    std::ofstream out(path);
    out << "this is { not \" valid json [0,";
  }
  TuningCache garbage(path, "sig");
  EXPECT_EQ(garbage.load(), 0u);
  std::remove(path.c_str());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t invalidations() {
  return obs::Registry::global().counter_value("tune.cache.invalidated");
}

// Version-1 caches already on disk have this exact layout (three lines
// per entry, precision-17 doubles, 0/1 flags, an escaped quote in the
// signature); the format is unchanged, so they must load field-exact.
// Their "wf_by" (a retired wavefront knob) is ignored on load and no
// longer written.
TEST(TuningCache, LoadsTheVersionOneGoldenFile) {
  const std::string path = temp_path("golden");
  {
    std::ofstream out(path);
    out << R"({
  "version": 1,
  "signature": "tb-tune-v1|golden \"host\"|s2",
  "entries": [
    {"nx": 40, "ny": 36, "nz": 33, "op": "lbm", "constraint": "compressed",
     "variant": "compressed", "teams": 2, "team_size": 3, "T": 5, "bx": 48, "by": 12, "bz": 10, "dl": 2, "du": 6, "dt": 1,
     "bl_threads": 7, "bl_bx": 300, "bl_by": 9, "bl_bz": 11, "nontemporal": 0, "wf_threads": 4, "wf_by": 5, "lbm_aa": 1, "lbm_prefetch": 3,
     "predicted_mlups": 0.10000000000000001, "measured_mlups": 1234.5678901234567},
    {"nx": 24, "ny": 24, "nz": 24, "op": "jacobi", "constraint": "",
     "variant": "wavefront", "teams": 1, "team_size": 4, "T": 1, "bx": 120, "by": 20, "bz": 20, "dl": 1, "du": 4, "dt": 0,
     "bl_threads": 1, "bl_bx": 600, "bl_by": 20, "bl_bz": 20, "nontemporal": 1, "wf_threads": 2, "wf_by": 16, "lbm_aa": 0, "lbm_prefetch": 0,
     "predicted_mlups": 0, "measured_mlups": 99.5}
  ]
}
)";
  }
  TuningCache cache(path, "tb-tune-v1|golden \"host\"|s2");
  ASSERT_EQ(cache.load(), 2u);

  Problem key;
  key.nx = 40;
  key.ny = 36;
  key.nz = 33;
  key.op = "lbm";
  key.variant = "compressed";
  const auto hit = cache.find(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, "compressed");
  EXPECT_EQ(hit->cfg.variant, core::Variant::kPipelined);
  const core::PipelineConfig& pl = hit->cfg.pipeline;
  EXPECT_EQ(pl.scheme, core::GridScheme::kCompressed);
  EXPECT_EQ(pl.teams, 2);
  EXPECT_EQ(pl.team_size, 3);
  EXPECT_EQ(pl.steps_per_thread, 5);
  EXPECT_EQ(pl.block.bx, 48);
  EXPECT_EQ(pl.block.by, 12);
  EXPECT_EQ(pl.block.bz, 10);
  EXPECT_EQ(pl.dl, 2);
  EXPECT_EQ(pl.du, 6);
  EXPECT_EQ(pl.dt, 1);
  const core::BaselineConfig& bl = hit->cfg.baseline;
  EXPECT_EQ(bl.threads, 7);
  EXPECT_EQ(bl.block.bx, 300);
  EXPECT_EQ(bl.block.by, 9);
  EXPECT_EQ(bl.block.bz, 11);
  EXPECT_FALSE(bl.nontemporal);
  EXPECT_EQ(hit->cfg.wavefront.threads, 4);
  EXPECT_EQ(hit->cfg.lbm_storage, lbm::LbmStorage::kAA);
  EXPECT_EQ(hit->cfg.lbm_prefetch, 3);
  EXPECT_EQ(hit->predicted_mlups, 0.1);  // bit-exact
  EXPECT_EQ(hit->measured_mlups, 1234.5678901234567);

  const auto wf = cache.find(cube(24));
  ASSERT_TRUE(wf.has_value());
  EXPECT_EQ(wf->cfg.variant, core::Variant::kWavefront);
  EXPECT_EQ(wf->cfg.wavefront.threads, 2);
  EXPECT_TRUE(wf->cfg.baseline.nontemporal);
  EXPECT_EQ(wf->measured_mlups, 99.5);

  // And what save() writes back loads to the same plans.
  ASSERT_TRUE(cache.save());
  EXPECT_EQ(read_text(path).find("wf_by"), std::string::npos);
  TuningCache again(path, cache.signature());
  ASSERT_EQ(again.load(), 2u);
  EXPECT_EQ(again.find(key)->cfg.pipeline.describe(), pl.describe());
  EXPECT_EQ(again.find(key)->measured_mlups, 1234.5678901234567);
  std::remove(path.c_str());
}

// A file cut mid-write does not parse: nothing of it is salvaged, load
// does not throw, and the discard is counted and reported with the
// parser's line:col.
TEST(TuningCache, TruncatedFileLoadsNothingAndCountsAnInvalidation) {
  const std::string path = temp_path("truncated");
  {
    TuningCache cache(path, "sig");
    cache.put(cube(32), pipelined_plan());
    cache.put(cube(48), pipelined_plan());
    cache.put(cube(64), pipelined_plan());
    ASSERT_TRUE(cache.save());
  }
  const std::string text = read_text(path);
  {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  const std::uint64_t before = invalidations();
  TuningCache cache(path, "sig");
  ::testing::internal::CaptureStderr();
  std::size_t loaded = 99;
  EXPECT_NO_THROW(loaded = cache.load());
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(invalidations(), before + 1);
  EXPECT_NE(warning.find(path + ":"), std::string::npos) << warning;
  std::remove(path.c_str());
}

TEST(TuningCache, SaveReplacesTheFileAndLeavesNoTemporary) {
  const std::string path = temp_path("atomic");
  {
    std::ofstream out(path);
    out << "stale contents";
  }
  TuningCache cache(path, "sig");
  cache.put(cube(32), pipelined_plan());
  ASSERT_TRUE(cache.save());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  TuningCache reread(path, "sig");
  EXPECT_EQ(reread.load(), 1u);
  std::remove(path.c_str());
}

TEST(TuningCache, CorruptEntriesAreSkippedNotFatal) {
  const std::string path = temp_path("corrupt");
  const std::string sig = "sig";
  {
    TuningCache cache(path, sig);
    cache.put(cube(32), pipelined_plan());
    ASSERT_TRUE(cache.save());
  }
  // Append-edit the file: an unknown variant, an inadmissible pipeline
  // schedule (du < dl) and an invalid baseline (0 threads) must all be
  // dropped on load — a corrupt entry may never become a "cache hit"
  // that then throws inside solver construction.
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::string bad =
      "    {\"nx\": 8, \"ny\": 8, \"nz\": 8, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"gauss-seidel\"},\n"
      "    {\"nx\": 9, \"ny\": 9, \"nz\": 9, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"pipelined\", \"dl\": 3, "
      "\"du\": 1},\n"
      "    {\"nx\": 10, \"ny\": 10, \"nz\": 10, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"baseline\", "
      "\"bl_threads\": 0},\n";
  const std::size_t pos = text.find("    {");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, bad);
  {
    std::ofstream out(path);
    out << text;
  }
  TuningCache cache(path, sig);
  EXPECT_EQ(cache.load(), 1u);
  EXPECT_TRUE(cache.find(cube(32)).has_value());
  std::remove(path.c_str());
}

// The typed reader drops an entry whose field has the wrong JSON type or
// does not fit an int, and keeps the valid entries around it.
TEST(TuningCache, WrongTypedFieldsDropOnlyTheirEntry) {
  const std::string path = temp_path("typed");
  {
    std::ofstream out(path);
    out << R"({"version": 1, "signature": "sig", "entries": [
      {"nx": 8, "ny": 8, "nz": 8, "variant": "baseline", "bl_bx": "64"},
      {"nx": 9, "ny": 9, "nz": 9, "variant": "baseline", "bl_threads": 3e9},
      {"nx": 10, "ny": 10, "nz": 10, "variant": "baseline", "op": 7},
      {"nx": 11, "ny": 11, "nz": 11, "variant": "baseline", "bl_threads": 2.5},
      {"nx": 12, "ny": 12, "nz": 12, "variant": "baseline", "bl_threads": 2},
      [12, 12, 12]
    ]})";
  }
  TuningCache cache(path, "sig");
  EXPECT_EQ(cache.load(), 1u);
  const auto hit = cache.find(cube(12));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cfg.baseline.threads, 2);
  EXPECT_EQ(hit->cfg.baseline.block.bx, 600);  // absent field: default
  std::remove(path.c_str());
}

TEST(TuningCache, MachineSignatureIsStableAndDiscriminating) {
  EXPECT_EQ(machine_signature(topo::host_machine()),
            machine_signature(topo::host_machine()));
  EXPECT_NE(machine_signature(topo::nehalem_ep()),
            machine_signature(topo::core2_like()));
  topo::MachineSpec shrunk = topo::nehalem_ep();
  shrunk.shared_cache_bytes /= 2;
  EXPECT_NE(machine_signature(topo::nehalem_ep()),
            machine_signature(shrunk));
}

TEST(Planner, SecondCallHitsTheCacheWithZeroProbes) {
  const std::string path = temp_path("planner");
  PlanOptions opts;
  opts.machine = topo::nehalem_ep_socket();
  opts.cache_path = path;
  opts.shortlist_size = 2;
  opts.probe.max_extent = 12;

  const Plan first = plan(cube(12), opts);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.probes_run, 2);

  const Plan second = plan(cube(12), opts);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.probes_run, 0);
  EXPECT_EQ(second.best.describe(), first.best.describe());
  EXPECT_DOUBLE_EQ(second.best.measured_mlups,
                   first.best.measured_mlups);

  // A different operator is a different key: tuned separately.
  const Plan box = plan(cube(12, "box27"), opts);
  EXPECT_FALSE(box.from_cache);
  std::remove(path.c_str());
}

// ---- the "auto" registry variant (linked via tb_tune) -----------------

class AutoVariant : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("auto");
    ASSERT_EQ(::setenv("TB_TUNE_CACHE", path_.c_str(), 1), 0);
  }
  void TearDown() override {
    ::unsetenv("TB_TUNE_CACHE");
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(AutoVariant, IsInstalledAndSelectable) {
  bool found = false;
  for (const std::string& m : core::registered_meta_variants())
    found = found || m == "auto";
  EXPECT_TRUE(found);
  // ...and stays out of the enumerable sweep list.
  for (const std::string& v : core::registered_variants())
    EXPECT_NE(v, "auto");
}

TEST_F(AutoVariant, PlansBitMatchTheReferenceForEveryOperator) {
  const core::Grid3 initial = make_initial(14, 13, 15);
  const core::Grid3 kappa = tb::test::make_kappa(14, 13, 15);
  const int steps = 9;

  for (const std::string& op : core::registered_operators()) {
    core::SolverConfig cfg;
    core::StencilSolver ref =
        core::make_solver("reference", op, cfg, initial, &kappa);
    ref.advance(steps);

    core::StencilSolver tuned =
        core::make_solver("auto", op, cfg, initial, &kappa);
    tuned.advance(steps);
    EXPECT_EQ(core::max_abs_diff(tuned.solution(), ref.solution()), 0.0)
        << "operator " << op;

    // Second construction replays the cached plan (no new probes) and
    // must stay exact.
    core::StencilSolver replay =
        core::make_solver("auto", op, cfg, initial, &kappa);
    replay.advance(steps);
    EXPECT_EQ(core::max_abs_diff(replay.solution(), ref.solution()), 0.0)
        << "operator " << op << " (replayed plan)";
  }
}

TEST_F(AutoVariant, ConfigureFromArgsAcceptsAuto) {
  core::SolverConfig cfg;
  ASSERT_TRUE(core::apply_variant(cfg, "auto"));
  EXPECT_EQ(core::variant_name(cfg), "auto");
  const core::Grid3 initial = make_initial(10);
  core::StencilSolver s = core::make_solver(core::variant_name(cfg),
                                            "jacobi", cfg, initial);
  s.advance(4);
  EXPECT_EQ(core::max_abs_diff(s.solution(),
                               tb::test::reference_result(initial, 4)),
            0.0);
}

}  // namespace
}  // namespace tb::tune
