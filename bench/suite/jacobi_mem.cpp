// jacobi_mem: the 7-point Jacobi at the memory tier, the paper's regime.
//
// Untraced, only the pipelined solver runs (it carries the workload's
// set-up, memory and throughput numbers), in three rounds that each
// construct, verify and time a fresh solver: the round-to-round spread
// covers page placement as well as bandwidth noise, and every round
// yields one set-up sample.  Traced, all five schedules run one round
// each for the per-layer ladder.  One solver exists at a time: a
// memory-tier pair of grids is gigabytes.
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/registry.hpp"
#include "obs/accounting.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tb::bench {

namespace {

struct Schedule {
  const char* name;      ///< suite name (metric prefix)
  const char* registry;  ///< registry variant
  int threads;
  const char* wait;      ///< wait histogram, nullptr when single-threaded
  const char* wait_metric;
};

}  // namespace

void run_jacobi_mem(const Options& o, const Tiers& t, Record& rec) {
  constexpr int kSteps = 8;
  const int n = t.mem_n;
  const int T = t.threads;
  // The model ratios' denominators, measured in this process before the
  // big grids exist.
  const Calibration cal = o.traced ? calibrate_host(t, o.smoke, rec) : Calibration{};
  core::Grid3 initial(n, n, n);
  fill_seeded(initial, o.seed, T);

  std::uint64_t want = 0;
  {
    const obs::Span span("bench.verify", "bench");
    core::StencilSolver ref =
        core::make_solver("reference", "jacobi", {}, initial);
    ref.advance(kSteps);
    want = grid_hash(ref.solution(), T);
  }

  std::vector<Schedule> schedules = {
      {"pipelined", "pipelined", T, "core.pipeline_wait.seconds",
       "core.pipelined.pipeline_wait_frac"}};
  if (o.traced)
    schedules = {
        schedules[0],
        {"compressed", "compressed", T, "core.pipeline_wait.seconds",
         "core.compressed.pipeline_wait_frac"},
        {"wavefront", "wavefront", T, "core.barrier_wait.seconds",
         "core.wavefront.barrier_wait_frac"},
        {"baseline", "baseline", T, "core.barrier_wait.seconds",
         "core.baseline.barrier_wait_frac"},
        {"baseline_1t", "baseline", 1, nullptr, nullptr}};
  const int rounds = o.traced || o.smoke ? 1 : 3;
  const double budget =
      o.seconds / static_cast<double>(schedules.size() * rounds);
  const double lups = (n - 2.0) * (n - 2.0) * (n - 2.0) * kSteps;
  obs::Registry& reg = obs::Registry::global();

  for (const Schedule& s : schedules) {
    core::SolverConfig cfg;
    cfg.pipeline.teams = 1;
    cfg.pipeline.team_size = s.threads;
    cfg.pipeline.steps_per_thread = 2;
    cfg.pipeline.block = {n, 8, 8};
    cfg.pipeline.du = 4;
    cfg.wavefront.threads = s.threads;
    cfg.baseline.threads = s.threads;
    const bool headline = std::string(s.name) == "pipelined";

    std::vector<double> mlups;
    double busy = 0.0, inner = 0.0, wait = 0.0;
    core::SolverConfig resolved;
    for (int r = 0; r < rounds; ++r) {
      std::optional<core::StencilSolver> solver;
      begin_memory_window();
      {
        const obs::Span span("bench.setup", "bench");
        const Clock::time_point t0 = Clock::now();
        solver.emplace(core::make_solver(s.registry, "jacobi", cfg, initial));
        if (headline) rec.sample("setup_s", seconds_since(t0));
      }
      resolved = solver->config();
      {
        const obs::Span span("bench.verify", "bench");
        solver->advance(kSteps);
        rec.check(grid_hash(solver->solution(), T) == want,
                  std::string("jacobi_mem: ") + s.name +
                      " warm-up differs from the reference solve");
      }
      const double wait0 = s.wait ? reg.histogram(s.wait).sum() : 0.0;
      const Clock::time_point start = Clock::now();
      for (int c = 0; o.smoke ? c < 2 : (c < 3 || seconds_since(start) < budget);
           ++c) {
        const obs::Span span("bench.advance", "bench");
        const Clock::time_point t0 = Clock::now();
        inner += solver->advance(kSteps).seconds;
        const double sec = seconds_since(t0);
        busy += sec;
        mlups.push_back(lups / sec / 1e6);
        if (headline) {
          rec.sample("call_ms", sec * 1e3);
          rec.sample("mlups", lups / sec / 1e6);
        }
      }
      if (s.wait) wait += reg.histogram(s.wait).sum() - wait0;
      if (headline) rec.sample("rss_mb", window_peak_rss_mb());
    }
    if (!o.traced) continue;
    const std::string p = std::string("core.") + s.name;
    const double m = median(mlups);
    rec.layer(p + ".mlups", m);
    rec.layer(p + ".gbs", m * obs::model_bytes_per_lup(resolved, "jacobi") / 1e3);
    rec.layer(p + ".model_ratio",
              m / obs::predicted_solver_mlups(resolved, "jacobi",
                                              calibrated_model(cal), n, n));
    // advance() time outside the schedule's own run (RunStats): the
    // facade's work around the sweeps, e.g. the compressed store's
    // load and store-back of the whole grid on every call.
    rec.layer(p + ".facade_frac", 1.0 - inner / busy);
    if (s.wait) rec.layer(s.wait_metric, wait / (s.threads * inner));
  }
}

}  // namespace tb::bench
