// dist_hybrid: the paper's hybrid shared/distributed mode.  dist:jacobi
// on proc_dims {2,1,1}; each rank runs a pipelined team of T/2 threads x
// 2 steps/thread (h = 4 halo layers per epoch) on an LLC-tier subdomain.
//
// A pass builds a fresh simnet::World and the distributed solver, runs
// 50 advance(1) epochs and gathers the grid, which must match a
// single-rank pipelined solve bit for bit.  One epoch's time is the
// slowest rank's.  Epoch times hold steady within a pass but move by tens
// of percent between passes with where the OS happens to place the
// fresh rank and team threads, so a run makes many short passes rather
// than a few long ones.
#include <algorithm>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/registry.hpp"
#include "dist/registry.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "simnet/comm.hpp"

namespace tb::bench {

void run_dist_hybrid(const Options& o, const Tiers& t, Record& rec) {
  constexpr int kRanks = 2;
  const int n = t.dist_n;
  const int epochs = o.smoke ? 2 : 50;
  core::Grid3 global(kRanks * n + 2, n + 2, n + 2);
  fill_seeded(global, o.seed, t.threads);

  dist::DistConfig cfg;
  cfg.proc_dims = {kRanks, 1, 1};
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = std::max(1, t.threads / kRanks);
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {n + 2 * cfg.pipeline.levels_per_sweep(), 8, 8};
  cfg.pipeline.du = 4;
  const int h = cfg.pipeline.levels_per_sweep();

  std::uint64_t want = 0;
  {
    const obs::Span span("bench.verify", "bench");
    core::SolverConfig scfg;
    scfg.pipeline.teams = 1;
    scfg.pipeline.team_size = t.threads;
    scfg.pipeline.steps_per_thread = 2;
    scfg.pipeline.block = {global.nx(), 8, 8};
    core::StencilSolver single =
        core::make_solver("pipelined", "jacobi", scfg, global);
    single.advance(epochs * h);
    want = grid_hash(single.solution(), t.threads);
  }

  const double lups_per_epoch =
      static_cast<double>(kRanks) * n * n * n * h;
  obs::Registry& reg = obs::Registry::global();
  const double exch0 = reg.histogram("dist.exchange.seconds").sum();
  const double sweep0 = reg.histogram("core.sweep.seconds").sum();
  double rank_seconds = 0.0, max_sum = 0.0, mean_sum = 0.0;
  double bytes = 0.0, msgs = 0.0;

  const Clock::time_point start = Clock::now();
  for (int pass = 0; o.smoke ? pass < 1 : (pass < 2 || seconds_since(start) < o.seconds);
       ++pass) {
    std::vector<std::vector<double>> epoch_s(
        kRanks, std::vector<double>(static_cast<std::size_t>(epochs)));
    std::vector<Clock::time_point> built(kRanks);
    std::vector<std::uint64_t> sent_bytes(kRanks), sent_msgs(kRanks);
    begin_memory_window();
    core::Grid3 gathered = global.clone();
    const Clock::time_point t0 = Clock::now();
    {
      simnet::World world(kRanks);
      world.run([&](simnet::Comm& comm) {
        const std::size_t r = static_cast<std::size_t>(comm.rank());
        std::unique_ptr<dist::AnyDistributed> solver;
        {
          const obs::Span span("bench.setup", "bench");
          solver = dist::make_distributed("dist:jacobi", comm, cfg, global);
        }
        built[r] = Clock::now();
        for (int e = 0; e < epochs; ++e) {
          const obs::Span epoch_span("bench.epoch", "bench");
          const Clock::time_point e0 = Clock::now();
          const dist::DistStats st = solver->advance(1);
          epoch_s[r][static_cast<std::size_t>(e)] = seconds_since(e0);
          sent_bytes[r] += st.comm.bytes;
          sent_msgs[r] += st.comm.messages;
        }
        solver->gather(comm.rank() == 0 ? &gathered : nullptr, 0);
      });
    }
    rec.sample("rss_mb", window_peak_rss_mb());
    rec.sample("setup_s",
               std::chrono::duration<double>(
                   *std::max_element(built.begin(), built.end()) - t0)
                   .count());
    {
      const obs::Span span("bench.verify", "bench");
      rec.check(grid_hash(gathered, t.threads) == want,
                "dist_hybrid: gathered grid differs from the single-rank run");
    }
    for (std::size_t e = 0; e < static_cast<std::size_t>(epochs); ++e) {
      double slowest = 0.0, sum = 0.0;
      for (const std::vector<double>& rank : epoch_s) {
        slowest = std::max(slowest, rank[e]);
        sum += rank[e];
      }
      rec.sample("call_ms", slowest * 1e3);
      rec.sample("mlups", lups_per_epoch / slowest / 1e6);
      max_sum += slowest;
      mean_sum += sum / kRanks;
      rank_seconds += sum;
    }
    if (pass == 0)
      for (int r = 0; r < kRanks; ++r) {
        bytes += static_cast<double>(sent_bytes[static_cast<std::size_t>(r)]) / epochs;
        msgs += static_cast<double>(sent_msgs[static_cast<std::size_t>(r)]) / epochs;
      }
  }

  if (!o.traced) return;
  const double compute =
      (reg.histogram("core.sweep.seconds").sum() - sweep0) / rank_seconds;
  const double exchange =
      (reg.histogram("dist.exchange.seconds").sum() - exch0) / rank_seconds;
  rec.check(compute + exchange <= 1.05,
            "dist_hybrid: sweep and exchange seconds exceed the epoch time");
  rec.layer("dist.compute_frac", compute);
  rec.layer("dist.exchange_frac", exchange);
  rec.layer("dist.other_frac", 1.0 - compute - exchange);
  rec.layer("dist.imbalance", max_sum / mean_sum - 1.0);
  rec.layer("dist.halo.bytes_per_epoch", bytes);
  rec.layer("dist.halo.msgs_per_epoch", msgs);
}

}  // namespace tb::bench
