// scenario_mix: ScenarioEngine::run_case over one session, the same
// schedules on small grids where set-up and sync dominate and the
// compute-bound D3Q19 kernels join in.
//
// Each run opens three sessions in turn.  A session's first pass misses
// on every key; its set-up cost is that cold pass's wall time beyond the
// advances (construction, first touch and each case's input grids).
// Warm passes, in a seed-shuffled order each, are the timed closed loop.
// Every case's CaseResult::mean must equal the reference variant's bit
// for bit.
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario_engine.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::bench {

namespace {

std::vector<scenario::CaseSpec> case_list(const Tiers& t, bool smoke) {
  std::vector<scenario::CaseSpec> cases;
  const auto add = [&](const std::string& op, const std::string& variant,
                       int n) {
    scenario::CaseSpec c;
    c.op = op;
    c.variant = variant;
    c.nx = c.ny = c.nz = n;
    c.steps = 16;
    c.threads = t.threads;
    c.name = op + "/" + variant + "/" + std::to_string(n);
    cases.push_back(c);
  };
  for (const char* op : {"jacobi", "varcoef", "box27", "redblack"})
    for (const char* v : {"baseline", "pipelined", "compressed", "wavefront"})
      for (int n : {t.l2_n, t.llc_n}) add(op, v, n);
  for (const char* op : {"lbm", "lbm:aa"})
    for (const char* v : {"baseline", "pipelined"}) add(op, v, smoke ? 24 : 48);
  return cases;
}

std::string key_of(const scenario::CaseSpec& c) {
  return c.op + "/" + std::to_string(c.nx);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

const char* wait_histogram(const std::string& variant) {
  return variant == "pipelined" || variant == "compressed"
             ? "core.pipeline_wait.seconds"
             : "core.barrier_wait.seconds";
}

struct Totals {
  double lups = 0.0, advance = 0.0, wait = 0.0;
  void add(const scenario::CaseResult& r, double w) {
    lups += static_cast<double>(r.stats.cell_updates);
    advance += r.stats.seconds;
    wait += w;
  }
  [[nodiscard]] double mlups() const { return lups / advance / 1e6; }
};

}  // namespace

void run_scenario_mix(const Options& o, const Tiers& t, Record& rec) {
  const std::vector<scenario::CaseSpec> cases = case_list(t, o.smoke);
  Rng rng(o.seed);

  std::map<std::string, double> want;
  {
    const obs::Span span("bench.verify", "bench");
    scenario::ScenarioEngine ref;
    for (scenario::CaseSpec c : cases) {
      c.variant = "reference";
      if (!want.contains(key_of(c))) want[key_of(c)] = ref.run_case(c).mean;
    }
  }

  const int sessions = o.smoke ? 1 : 3;
  const double budget = o.seconds / sessions;
  obs::Registry& reg = obs::Registry::global();
  std::map<std::string, Totals> by_variant, by_op, by_tier;
  double wall = 0.0, advance = 0.0, created = 0.0, reused = 0.0;
  std::uint64_t cases_run = 0, allocs = 0;

  for (int s = 0; s < sessions; ++s) {
    scenario::ScenarioEngine engine;
    std::vector<scenario::CaseSpec> order = cases;
    // Returns the pass's wall time and its wall time beyond the advances.
    const auto run_pass = [&](bool timed) {
      rng.shuffle(order);
      if (timed) begin_memory_window();
      double pass_wall = 0.0, overhead = 0.0;
      Totals pass;
      for (const scenario::CaseSpec& c : order) {
        const obs::Span span("bench.case", "bench");
        const double w0 = reg.histogram(wait_histogram(c.variant)).sum();
        const std::uint64_t a0 = util::buffer_alloc_count();
        const Clock::time_point t0 = Clock::now();
        const scenario::CaseResult r = engine.run_case(c);
        const double sec = seconds_since(t0);
        rec.check(same_bits(r.mean, want.at(key_of(c))),
                  "scenario_mix: " + c.name + " mean differs from reference");
        pass_wall += sec;
        overhead += sec - r.stats.seconds;
        if (!timed) continue;
        const double w = reg.histogram(wait_histogram(c.variant)).sum() - w0;
        allocs += util::buffer_alloc_count() - a0;
        rec.sample("call_ms", sec * 1e3);
        pass.add(r, w);
        wall += sec;
        advance += r.stats.seconds;
        ++cases_run;
        by_variant[c.variant].add(r, w);
        std::string op = c.op == "lbm:aa" ? "lbm_aa" : c.op;
        by_op[op].add(r, w);
        if (c.nx == t.l2_n) by_tier["l2"].add(r, w);
        if (c.nx == t.llc_n) by_tier["llc"].add(r, w);
      }
      if (timed) {
        rec.sample("mlups", pass.mlups());
        rec.sample("rss_mb", window_peak_rss_mb());
      }
      return std::make_pair(pass_wall, overhead);
    };

    {
      const obs::Span span("bench.setup", "bench");
      rec.sample("setup_s", run_pass(false).second);
    }
    // Whole passes only; stop before one would overrun the budget.
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    for (int p = 0; o.smoke ? p < 2
                            : (p < 1 || seconds_since(start) + last <= budget);
         ++p)
      last = run_pass(true).first;
    created += static_cast<double>(engine.session().solvers_created());
    reused += static_cast<double>(engine.session().solvers_reused());
  }

  if (!o.traced) return;
  for (const auto& [v, tot] : by_variant) {
    const std::string kind =
        v == "pipelined" || v == "compressed" ? "pipeline" : "barrier";
    rec.layer("core." + v + "." + kind + "_wait_frac",
              tot.wait / (t.threads * tot.advance));
  }
  for (const auto& [op, tot] : by_op) rec.layer("op." + op + ".mlups", tot.mlups());
  for (const auto& [tier, tot] : by_tier)
    rec.layer("tier." + tier + ".mlups", tot.mlups());
  rec.layer("session.reuse_frac", reused / (created + reused));
  rec.layer("scenario.overhead_frac", (wall - advance) / wall);
  rec.layer("scenario.allocs_per_case",
            static_cast<double>(allocs) / static_cast<double>(cases_run));
}

}  // namespace tb::bench
