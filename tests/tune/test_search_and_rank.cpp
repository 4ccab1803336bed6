// Search-space and model-ranker properties of the tuning subsystem:
// enumeration is a pure function (deterministic), covers every concrete
// variant the machine admits, honors constraints, and produces only
// valid schedules; ranking fills model scores, sorts reproducibly, and
// reproduces the paper's qualitative prediction (temporal blocking wins
// on bandwidth-starved machines).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/accounting.hpp"
#include "perfmodel/model_api.hpp"
#include "topo/machine.hpp"
#include "tune/measure.hpp"
#include "tune/model_ranker.hpp"
#include "tune/planner.hpp"
#include "tune/search_space.hpp"

namespace tb::tune {
namespace {

Problem cube(int n, std::string op = "jacobi") {
  Problem p;
  p.nx = p.ny = p.nz = n;
  p.op = std::move(op);
  return p;
}

std::vector<std::string> names(const std::vector<Candidate>& cs) {
  std::vector<std::string> out;
  out.reserve(cs.size());
  for (const Candidate& c : cs) out.push_back(c.describe());
  return out;
}

TEST(SearchSpace, EnumerationIsDeterministic) {
  const Problem p = cube(64);
  const topo::MachineSpec m = topo::nehalem_ep();
  const auto a = enumerate_candidates(p, m);
  const auto b = enumerate_candidates(p, m);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(names(a), names(b));
}

TEST(SearchSpace, CoversEveryPerformanceVariant) {
  const auto cands = enumerate_candidates(cube(64), topo::nehalem_ep());
  bool baseline = false, pipelined = false, compressed = false,
       wavefront = false;
  for (const Candidate& c : cands) {
    baseline = baseline || c.variant == "baseline";
    pipelined = pipelined || c.variant == "pipelined";
    compressed = compressed || c.variant == "compressed";
    wavefront = wavefront || c.variant == "wavefront";
    EXPECT_NE(c.variant, "reference") << "tuning never proposes the oracle";
  }
  EXPECT_TRUE(baseline);
  EXPECT_TRUE(pipelined);
  EXPECT_TRUE(compressed);
  EXPECT_TRUE(wavefront);
}

TEST(SearchSpace, EveryScheduleIsValidAndWithinTheMachine) {
  const topo::MachineSpec m = topo::nehalem_ep();
  for (const Candidate& c : enumerate_candidates(cube(48), m)) {
    EXPECT_NO_THROW(c.cfg.pipeline.validate()) << c.describe();
    EXPECT_NO_THROW(c.cfg.wavefront.validate()) << c.describe();
    EXPECT_GE(c.total_threads(), 1) << c.describe();
    EXPECT_LE(c.total_threads(), m.total_cores()) << c.describe();
  }
}

TEST(SearchSpace, ConstraintRestrictsTheVariant) {
  Problem p = cube(64);
  p.variant = "wavefront";
  for (const Candidate& c :
       enumerate_candidates(p, topo::nehalem_ep()))
    EXPECT_EQ(c.variant, "wavefront");

  p.variant = "reference";
  const auto oracle = enumerate_candidates(p, topo::nehalem_ep());
  ASSERT_EQ(oracle.size(), 1u);
  EXPECT_EQ(oracle.front().variant, "reference");
}

TEST(SearchSpace, TemporalBlockingCompetesAtFullCoreCount) {
  // A 6-core socket is not a power of two; pipelined candidates must
  // still reach team_size 6, or the tuner compares 4-thread pipelines
  // against 6-thread baselines and systematically under-selects
  // temporal blocking.
  topo::MachineSpec m;
  m.sockets = 1;
  m.cores_per_socket = 6;
  Problem p = cube(64);
  p.variant = "pipelined";
  int max_t = 0;
  for (const Candidate& c : enumerate_candidates(p, m))
    max_t = std::max(max_t, c.cfg.pipeline.team_size);
  EXPECT_EQ(max_t, 6);
}

TEST(SearchSpace, EveryConstraintIsSatisfiableOnASingleCoreMachine) {
  // A constrained plan ("--variant compressed" on a laptop with one
  // visible core) must never dead-end with an empty space: serial
  // temporal blocking is still a schedule.
  topo::MachineSpec m;
  m.sockets = 1;
  m.cores_per_socket = 1;
  for (const char* v :
       {"baseline", "pipelined", "compressed", "wavefront"}) {
    Problem p = cube(32);
    p.variant = v;
    const auto cands = enumerate_candidates(p, m);
    EXPECT_FALSE(cands.empty()) << v;
    for (const Candidate& c : cands) {
      EXPECT_EQ(c.variant, v);
      EXPECT_EQ(c.total_threads(), 1) << c.describe();
    }
  }
}

TEST(ModelRanker, OperatorTrafficMatchesTheOperators) {
  using perfmodel::operator_traffic;
  EXPECT_EQ(operator_traffic("jacobi").mem_bytes_nt, 16.0);
  EXPECT_EQ(operator_traffic("jacobi").aux_bytes, 0.0);
  EXPECT_EQ(operator_traffic("varcoef").aux_bytes, 24.0);
  EXPECT_EQ(operator_traffic("box27").mem_bytes_nt, 24.0);
  // Each red–black half-sweep still streams the full solution (the
  // other color is copied through), so per carried cell it moves the
  // Jacobi traffic without a streaming-store path.
  EXPECT_EQ(operator_traffic("redblack").mem_bytes, 24.0);
  EXPECT_EQ(operator_traffic("redblack").mem_bytes_nt, 24.0);
  // 19 distributions + the density carrier, read+write+write-allocate,
  // plus the 8-byte bounce-back mask word.
  EXPECT_EQ(operator_traffic("lbm").mem_bytes, 20 * 24.0);
  EXPECT_EQ(operator_traffic("lbm").aux_bytes, 8.0);
  // The in-place AA layout drops the second lattice and the
  // write-allocate: 19 * 16 + the carrier's 24, same mask word, and a
  // roughly halved in-flight state.
  EXPECT_EQ(operator_traffic("lbm:aa").mem_bytes, 19 * 16.0 + 24.0);
  EXPECT_EQ(operator_traffic("lbm:aa").aux_bytes, 8.0);
  EXPECT_LT(operator_traffic("lbm:aa").mem_bytes,
            0.7 * operator_traffic("lbm").mem_bytes);
  EXPECT_LT(operator_traffic("lbm:aa").block_state_factor,
            0.6 * operator_traffic("lbm").block_state_factor);
  // The pipelined capacity gate must see the side-channel lattices:
  // lbm keeps ~40 carrier-blocks of state in flight per block.
  EXPECT_GT(operator_traffic("lbm").block_state_factor, 30.0);
  EXPECT_EQ(operator_traffic("jacobi").block_state_factor, 1.0);
}

TEST(SearchSpace, LbmProblemsEnumerateBothStoragePolicies) {
  // A bare "lbm" problem tunes over the storage axis: every schedule is
  // emitted once per layout, an "lbm:aa" problem pins AA, and non-lbm
  // operators never carry it.  Ranking must price the AA twin of the
  // same schedule at or above the two-lattice one (less traffic).
  const topo::MachineSpec m = topo::nehalem_ep();
  const Problem p = cube(64, "lbm");
  const auto cands = enumerate_candidates(p, m);
  std::size_t aa = 0, two = 0;
  for (const Candidate& c : cands)
    (c.cfg.lbm_storage == lbm::LbmStorage::kAA ? aa : two) += 1;
  EXPECT_EQ(aa, two);
  ASSERT_GT(aa, 0u);

  for (const Candidate& c : enumerate_candidates(cube(64, "lbm:aa"), m))
    EXPECT_EQ(c.cfg.lbm_storage, lbm::LbmStorage::kAA) << c.describe();
  for (const Candidate& c : enumerate_candidates(cube(64), m))
    EXPECT_EQ(c.cfg.lbm_storage, lbm::LbmStorage::kTwoLattice)
        << c.describe();

  auto ranked = cands;
  rank_candidates(ranked, p, m);
  // Pair up twins via describe() minus the storage tag.
  for (const Candidate& c : ranked) {
    if (c.cfg.lbm_storage != lbm::LbmStorage::kAA) continue;
    const std::string tagged = c.describe();
    for (const Candidate& o : ranked) {
      if (o.cfg.lbm_storage == lbm::LbmStorage::kAA) continue;
      std::string plain = o.describe();
      const std::size_t bracket = plain.find('[');
      plain.insert(bracket == std::string::npos ? plain.size() : bracket,
                   "+aa");
      if (plain == tagged) {
        EXPECT_GE(c.predicted_mlups, o.predicted_mlups) << tagged;
      }
    }
  }
}

TEST(ModelRanker, BareLbmPricesAaConfigsOnTheAaRow) {
  // The storage policy, not the operator name, picks the traffic row: a
  // bare "lbm" problem's AA candidates price exactly like "lbm:aa".
  const topo::MachineSpec m = topo::nehalem_ep();
  const perfmodel::NodeModel model(m);
  std::size_t checked = 0;
  for (const Candidate& c : enumerate_candidates(cube(64, "lbm"), m)) {
    if (c.cfg.lbm_storage != lbm::LbmStorage::kAA) continue;
    EXPECT_EQ(obs::predicted_solver_mlups(c.cfg, "lbm", model, 64, 64),
              obs::predicted_solver_mlups(c.cfg, "lbm:aa", model, 64, 64))
        << c.describe();
    EXPECT_EQ(obs::model_bytes_per_lup(c.cfg, "lbm"),
              obs::model_bytes_per_lup(c.cfg, "lbm:aa"))
        << c.describe();
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  // A two-lattice config stays on the heavier "lbm" row.
  core::SolverConfig two;
  core::SolverConfig aa;
  aa.lbm_storage = lbm::LbmStorage::kAA;
  EXPECT_GT(obs::model_bytes_per_lup(two, "lbm"),
            obs::model_bytes_per_lup(aa, "lbm"));
}

TEST(SearchSpace, AaScheduleAppliesItsStoragePolicy) {
  // Candidate::apply must carry the storage policy into the deployment
  // config — this is how `--variant auto` actually turns AA on.
  Candidate c;
  c.variant = "baseline";
  c.cfg.variant = core::Variant::kBaseline;
  c.cfg.lbm_storage = lbm::LbmStorage::kAA;
  core::SolverConfig cfg;
  c.apply(cfg);
  EXPECT_EQ(cfg.lbm_storage, lbm::LbmStorage::kAA);
  EXPECT_NE(c.describe().find("+aa"), std::string::npos);
}

TEST(SearchSpace, HeavyOperatorsGetCacheSizedTiles) {
  // The lbm working set per cell is ~20x jacobi's: the tile ladder must
  // shrink so the pipelined capacity gate still admits real candidates.
  const topo::MachineSpec m = topo::nehalem_ep();
  int min_jacobi = 1 << 30, min_lbm = 1 << 30;
  for (const Candidate& c : enumerate_candidates(cube(64), m))
    if (c.variant == "pipelined")
      min_jacobi = std::min(min_jacobi, c.cfg.pipeline.block.by);
  for (const Candidate& c : enumerate_candidates(cube(64, "lbm"), m))
    if (c.variant == "pipelined")
      min_lbm = std::min(min_lbm, c.cfg.pipeline.block.by);
  EXPECT_LT(min_lbm, min_jacobi);
}

TEST(ModelRanker, FillsScoresAndSortsDescending) {
  const Problem p = cube(64);
  const topo::MachineSpec m = topo::nehalem_ep();
  auto cands = enumerate_candidates(p, m);
  rank_candidates(cands, p, m);
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_GT(cands[i].predicted_mlups, 0.0) << cands[i].describe();
    if (i > 0) {
      EXPECT_GE(cands[i - 1].predicted_mlups, cands[i].predicted_mlups);
    }
  }
}

TEST(ModelRanker, RankingIsReproducible) {
  const Problem p = cube(96);
  const topo::MachineSpec m = topo::nehalem_ep();
  auto a = enumerate_candidates(p, m);
  auto b = enumerate_candidates(p, m);
  rank_candidates(a, p, m);
  rank_candidates(b, p, m);
  EXPECT_EQ(names(a), names(b));
}

TEST(ModelRanker, TemporalBlockingWinsOnBandwidthStarvedMachines) {
  // The paper's core claim (Sec. 1.4): when one core nearly saturates
  // the memory bus, temporal blocking has the most headroom — the model
  // must rank some temporally blocked schedule above every baseline.
  const Problem p = cube(600);
  const topo::MachineSpec m = topo::core2_like();
  auto cands = enumerate_candidates(p, m);
  rank_candidates(cands, p, m);
  ASSERT_FALSE(cands.empty());
  EXPECT_TRUE(cands.front().variant == "pipelined" ||
              cands.front().variant == "compressed" ||
              cands.front().variant == "wavefront")
      << cands.front().describe();
}

TEST(ModelRanker, ShortlistTruncatesWithoutReordering) {
  const Problem p = cube(64);
  const topo::MachineSpec m = topo::nehalem_ep();
  auto cands = enumerate_candidates(p, m);
  rank_candidates(cands, p, m);
  const auto top3 = shortlist(cands, 3);
  ASSERT_EQ(top3.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(top3[static_cast<std::size_t>(i)].describe(),
              cands[static_cast<std::size_t>(i)].describe());
  EXPECT_EQ(shortlist(cands, 0).size(), cands.size());
  EXPECT_EQ(shortlist(cands, 1 << 20).size(), cands.size());
}

TEST(Measure, ProbesReportPositiveThroughput) {
  Candidate c;
  c.variant = "baseline";
  c.cfg.variant = core::Variant::kBaseline;
  c.cfg.baseline.threads = 2;
  c.cfg.baseline.block = {16, 8, 8};
  ProbeOptions probe;
  probe.max_extent = 16;
  EXPECT_GT(measure_candidate(c, cube(16), probe), 0.0);
}

TEST(Measure, ProjectsFullProblemSchedulesOntoTheProbeGrid) {
  // Regression: candidates enumerated for a 200^3 problem carry (j, k)
  // tiles up to 32 and streaming stores; a 16^3 probe (interior 14) must
  // clip EVERY extent — by/bz of both schedules, not just bx — and
  // re-derive the NT flag for the (cache-resident) probe grid, or the
  // probe times a different schedule shape than the candidate being
  // ranked.
  const topo::MachineSpec m = topo::nehalem_ep();
  const Problem p = cube(200);
  bool saw_wide_tile = false, saw_nt = false;
  for (const Candidate& c : enumerate_candidates(p, m)) {
    saw_wide_tile = saw_wide_tile || c.cfg.pipeline.block.by > 14 ||
                    c.cfg.baseline.block.by > 14;
    saw_nt = saw_nt || c.cfg.baseline.nontemporal;

    const Candidate probe = project_to_probe(c, p, 16, 16, 16, m);
    EXPECT_LE(probe.cfg.pipeline.block.by, 14) << c.describe();
    EXPECT_LE(probe.cfg.pipeline.block.bz, 14) << c.describe();
    EXPECT_LE(probe.cfg.pipeline.block.bx, 16) << c.describe();
    EXPECT_LE(probe.cfg.baseline.block.by, 14) << c.describe();
    EXPECT_LE(probe.cfg.baseline.block.bz, 14) << c.describe();
    if (c.cfg.variant == core::Variant::kBaseline) {
      EXPECT_FALSE(probe.cfg.baseline.nontemporal)
          << "Sec. 1.1: NT stores lose on a cache-resident probe grid — "
          << c.describe();
    }
  }
  // The regression is only real if the full problem enumerated what the
  // probe had to clip.
  EXPECT_TRUE(saw_wide_tile);
  EXPECT_TRUE(saw_nt);
}

TEST(Measure, SmallProbeRunsEveryVariantOfABigProblem) {
  // End-to-end regression for ProbeOptions{.max_extent = 16}: one
  // candidate per variant, enumerated for 200^3, must probe cleanly on
  // the capped grid.
  const topo::MachineSpec m = topo::nehalem_ep();
  const Problem p = cube(200);
  ProbeOptions probe;
  probe.max_extent = 16;
  probe.min_steps = 2;
  probe.machine = m;
  std::vector<std::string> seen;
  for (const Candidate& c : enumerate_candidates(p, m)) {
    if (std::find(seen.begin(), seen.end(), c.variant) != seen.end())
      continue;
    seen.push_back(c.variant);
    EXPECT_GT(measure_candidate(c, p, probe), 0.0) << c.describe();
  }
  EXPECT_EQ(seen.size(), 4u);  // baseline, pipelined, compressed, wavefront
}

TEST(Planner, EndToEndWithoutCache) {
  PlanOptions opts;
  opts.machine = topo::nehalem_ep_socket();
  opts.use_cache = false;
  opts.shortlist_size = 2;
  opts.probe.max_extent = 16;
  const Plan plan = tune::plan(cube(16), opts);
  EXPECT_FALSE(plan.from_cache);
  EXPECT_EQ(plan.probes_run, 2);
  EXPECT_GT(plan.enumerated, 2);
  EXPECT_GT(plan.best.measured_mlups, 0.0);
  ASSERT_EQ(plan.shortlist.size(), 2u);
}

TEST(Planner, RejectsNonsenseProblems) {
  EXPECT_THROW((void)plan(cube(2)), std::invalid_argument);
  Problem p = cube(16, "d2q9");  // lbm IS a registry operator now
  EXPECT_THROW((void)plan(p), std::invalid_argument);
  p = cube(16);
  p.variant = "gauss-seidel";
  EXPECT_THROW((void)plan(p), std::invalid_argument);
}

TEST(Planner, ResolvesPlansForTheNewOperators) {
  // `--variant auto` must serve lbm and redblack: enumeration, ranking
  // and probing all handle the new operators end to end.
  for (const std::string op : {"lbm", "redblack"}) {
    PlanOptions opts;
    opts.machine = topo::nehalem_ep_socket();
    opts.use_cache = false;
    opts.shortlist_size = 2;
    opts.probe.max_extent = 12;
    const Plan pl = plan(cube(12, op), opts);
    EXPECT_EQ(pl.probes_run, 2) << op;
    EXPECT_GT(pl.best.measured_mlups, 0.0) << op;
    EXPECT_NE(pl.best.variant, "reference") << op;
  }
}

}  // namespace
}  // namespace tb::tune
