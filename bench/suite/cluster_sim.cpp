// cluster_sim: weak scaling through the discrete-event backend only —
// topo fabrics, dist::build_halo_programs and event::run_programs, no
// solver code.  32^3 cells per rank, h = 4, 4 epochs, {fat-tree, torus,
// cloud} x {512, 4096, 10000} ranks, single-threaded; every compute op
// carries a seeded +-10 % jitter.  One closed-loop call is a pass over
// all nine configurations in a seed-shuffled order: single replays span
// three orders of magnitude, so percentiles over them would only say
// which configuration sits at the percentile's rank.
//
// Correctness: an 8-rank program set replays on the thread-backed World
// and on the engine, whose epoch clocks must agree within 1e-9 s; and
// each configuration's event and flow counts must repeat in every pass.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/rank_program.hpp"
#include "obs/trace.hpp"
#include "perfmodel/cluster_model.hpp"
#include "simnet/event/engine.hpp"
#include "topo/fabric.hpp"

namespace tb::bench {

std::vector<simnet::RankProgram> weak_programs(int ranks, int n, int halo,
                                               int epochs) {
  dist::HaloProgramSpec spec;
  spec.proc_dims = perfmodel::dims_create(ranks);
  for (std::size_t d = 0; d < 3; ++d)
    spec.global_n[d] = n * spec.proc_dims[d] + 2;
  spec.halo = halo;
  spec.proc_lups = 2.0e9;
  spec.epochs = epochs;
  return dist::build_halo_programs(spec);
}

void jitter_compute(std::vector<simnet::RankProgram>& programs,
                    std::uint64_t seed) {
  Rng rng(seed);
  for (simnet::RankProgram& p : programs)
    for (simnet::RankOp& op : p.ops)
      if (op.kind == simnet::RankOpKind::kCompute)
        op.seconds *= 0.9 + 0.2 * rng.uniform();
}

void run_cluster_sim(const Options& o, const Tiers& /*t*/, Record& rec) {
  constexpr int kCells = 32, kHalo = 4;
  const int epochs = o.smoke ? 2 : 4;

  {
    const obs::Span span("bench.verify", "bench");
    std::vector<simnet::RankProgram> programs =
        weak_programs(8, kCells, kHalo, epochs);
    jitter_compute(programs, o.seed);
    const simnet::NetworkModel net;
    simnet::World world(8, net);
    const simnet::ReplayResult oracle = simnet::replay_on_world(world, programs);
    const simnet::event::EngineResult engine = simnet::event::run_programs(
        *topo::make_fabric("fat-tree", 8, simnet::event::fabric_params_from(net)),
        programs, simnet::event::engine_config_from(net));
    double worst = 0.0;
    for (std::size_t r = 0; r < 8; ++r)
      for (std::size_t k = 0; k < oracle.epoch_times[r].size(); ++k)
        worst = std::max(worst, std::abs(oracle.epoch_times[r][k] -
                                         engine.epoch_times[r][k]));
    rec.check(engine.epoch_times.size() == 8 && worst <= 1e-9,
              "cluster_sim: 8-rank engine and World replay disagree by " +
                  std::to_string(worst) + " s");
  }

  struct Config {
    std::string topology;
    int ranks;
    std::uint64_t jitter_seed;
  };
  std::vector<Config> configs;
  const std::vector<int> rank_counts =
      o.smoke ? std::vector<int>{8, 64} : std::vector<int>{512, 4096, 10000};
  for (const std::string& topology : topo::fabric_kinds())
    for (int ranks : rank_counts)
      configs.push_back({topology, ranks, o.seed * 1000003 + configs.size()});

  Rng rng(o.seed);
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counts;
  std::map<std::string, std::pair<double, double>> topo_rate;  // events, s
  double events0 = 0.0, flows0 = 0.0;
  const Clock::time_point start = Clock::now();
  double last = 0.0;  // stop before a pass would overrun the budget
  for (int pass = 0;
       o.smoke ? pass < 2
               : (pass < 3 || seconds_since(start) + last <= o.seconds);
       ++pass) {
    rng.shuffle(configs);
    begin_memory_window();
    double setup = 0.0, replay = 0.0, lups = 0.0;
    for (const Config& c : configs) {
      std::unique_ptr<topo::ClusterFabric> fabric;
      std::vector<simnet::RankProgram> programs;
      {
        const obs::Span span("bench.setup", "bench");
        const Clock::time_point t0 = Clock::now();
        fabric = topo::make_fabric(c.topology, c.ranks);
        programs = weak_programs(c.ranks, kCells, kHalo, epochs);
        jitter_compute(programs, c.jitter_seed);
        setup += seconds_since(t0);
      }
      const obs::Span span("bench.replay", "bench");
      const Clock::time_point t0 = Clock::now();
      const simnet::event::EngineResult r =
          simnet::event::run_programs(*fabric, programs);
      const double sec = seconds_since(t0);
      replay += sec;
      lups += static_cast<double>(c.ranks) * kCells * kCells * kCells *
              kHalo * epochs;
      auto& [events, seconds] = topo_rate[c.topology];
      events += static_cast<double>(r.events);
      seconds += sec;

      const std::string key = c.topology + "/" + std::to_string(c.ranks);
      if (pass == 0) {
        counts[key] = {r.events, r.flows};
        events0 += static_cast<double>(r.events);
        flows0 += static_cast<double>(r.flows);
      } else {
        rec.check(counts[key] == std::make_pair(r.events, r.flows),
                  "cluster_sim: " + key + " event counts changed between passes");
      }
    }
    last = setup + replay;
    rec.sample("rss_mb", window_peak_rss_mb());
    rec.sample("setup_s", setup);
    rec.sample("call_ms", replay * 1e3);
    rec.sample("mlups", lups / replay / 1e6);
  }

  if (!o.traced) return;
  for (const auto& [topology, rate] : topo_rate)
    rec.layer("simnet.event." + topology + ".events_per_s",
              rate.first / rate.second);
  rec.layer("simnet.event.events", events0);
  rec.layer("simnet.event.flows", flows0);
}

}  // namespace tb::bench
