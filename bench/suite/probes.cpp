// Host calibration and layer probes: small, workload-independent
// measurements the "host" run takes once per result set.  The measured
// bandwidths are also the denominators of jacobi_mem's model ratios.
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/kernels.hpp"
#include "core/session.hpp"
#include "core/sync.hpp"
#include "perfmodel/stream.hpp"
#include "simnet/comm.hpp"
#include "simnet/event/engine.hpp"
#include "topo/fabric.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::bench {

namespace {

/// Single-thread row-kernel sweeps over an LLC-tier grid pair; GB/s from
/// computed bytes (24 B/LUP cached stores, 16 B/LUP streaming stores).
template <bool kNt>
double row_kernel_gbs(const Tiers& t, std::uint64_t seed) {
  const int n = t.llc_n;
  core::Grid3 src(n, n, n), dst(n, n, n);
  fill_seeded(src, seed, 1);
  fill_seeded(dst, seed + 1, 1);
  const double bytes = (kNt ? 16.0 : 24.0) * (n - 2.0) * (n - 2.0) * (n - 2.0);
  std::vector<double> gbs;
  const Clock::time_point start = Clock::now();
  while (gbs.size() < 3 || seconds_since(start) < 0.3) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 1; k < n - 1; ++k)
      for (int j = 1; j < n - 1; ++j) {
        if constexpr (kNt)
          core::jacobi_row_nt(dst.row(j, k), src.row(j, k),
                              src.row(j - 1, k), src.row(j + 1, k),
                              src.row(j, k - 1), src.row(j, k + 1), 1, n - 1);
        else
          core::jacobi_row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
                           src.row(j + 1, k), src.row(j, k - 1),
                           src.row(j, k + 1), 1, n - 1);
      }
    if constexpr (kNt) core::nontemporal_fence();
    gbs.push_back(bytes / seconds_since(t0) / 1e9);
  }
  return median(gbs);
}

/// T threads hammering core::SpinBarrier: median ns per episode.
double barrier_ns(int threads) {
  constexpr int kEpisodes = 20000;
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    core::SpinBarrier barrier(threads);
    std::vector<std::thread> pool;
    const Clock::time_point t0 = Clock::now();
    for (int w = 0; w < threads; ++w)
      pool.emplace_back([&] {
        for (int e = 0; e < kEpisodes; ++e) barrier.arrive_and_wait();
      });
    for (std::thread& th : pool) th.join();
    ns.push_back(seconds_since(t0) * 1e9 / kEpisodes);
  }
  return median(ns);
}

/// Two-rank Comm ping-pong of one dist_hybrid face: n^2 cells x h = 4
/// layers of doubles.  Median microseconds per round trip.
double face_roundtrip_us(const Tiers& t) {
  const std::size_t words = static_cast<std::size_t>(t.dist_n) * t.dist_n * 4;
  constexpr int kTrips = 64;
  std::vector<double> us;
  simnet::World world(2);
  world.run([&](simnet::Comm& comm) {
    std::vector<double> buf(words, 1.0);
    for (int r = 0; r < kTrips; ++r) {
      const Clock::time_point t0 = Clock::now();
      if (comm.rank() == 0) {
        comm.send(1, 0, buf);
        comm.recv(1, 1, buf);
        us.push_back(seconds_since(t0) * 1e6);
      } else {
        comm.recv(0, 0, buf);
        comm.send(0, 1, buf);
      }
    }
  });
  return median(us);
}

/// Session miss (construction + first touch) and hit (reset) overhead of
/// an L2-tier pipelined Jacobi solve: wall time minus the advance, plus
/// the grid allocations a pool hit makes (the pool's contract is none).
void session_probe(const Tiers& t, std::uint64_t seed, Record& rec) {
  core::Grid3 initial(t.l2_n, t.l2_n, t.l2_n);
  fill_seeded(initial, seed, t.threads);
  core::SolveRequest req;
  req.variant = "pipelined";
  req.op = "jacobi";
  req.cfg.pipeline.teams = 1;
  req.cfg.pipeline.team_size = t.threads;
  req.cfg.pipeline.steps_per_thread = 2;
  req.cfg.pipeline.block = {t.l2_n, 8, 8};
  req.initial = &initial;
  req.steps = 8;
  std::vector<double> create, reset;
  std::uint64_t hit_allocs = 0;
  for (int s = 0; s < 5; ++s) {
    core::SolverSession session;
    for (int c = 0; c < 5; ++c) {
      const std::uint64_t allocs = util::buffer_alloc_count();
      const Clock::time_point t0 = Clock::now();
      const core::SolveResult r = session.solve(req);
      const double ms = (seconds_since(t0) - r.stats.seconds) * 1e3;
      (r.reused ? reset : create).push_back(ms);
      if (r.reused) hit_allocs += util::buffer_alloc_count() - allocs;
    }
  }
  rec.layer("session.create_ms", median(create));
  rec.layer("session.reset_ms", median(reset));
  rec.layer("session.allocs_per_hit",
            static_cast<double>(hit_allocs) / static_cast<double>(reset.size()));
}

/// Fabric and program builds of the three 4096-rank cluster_sim
/// fabrics, and a seeded 512-rank fat-tree replay whose modeled epoch
/// time guards the event engine's semantics.
void event_probe(std::uint64_t seed, Record& rec) {
  double fabric_ms = 0.0, program_ms = 0.0;
  for (const std::string& kind : topo::fabric_kinds()) {
    Clock::time_point t0 = Clock::now();
    const std::unique_ptr<topo::ClusterFabric> fabric =
        topo::make_fabric(kind, 4096);
    fabric_ms += seconds_since(t0) * 1e3;
    t0 = Clock::now();
    const std::vector<simnet::RankProgram> programs =
        weak_programs(4096, 32, 4, 4);
    program_ms += seconds_since(t0) * 1e3;
  }
  rec.layer("topo.fabric_build_ms", fabric_ms);
  rec.layer("dist.program_build_ms", program_ms);

  constexpr int kEpochs = 4;
  std::vector<simnet::RankProgram> programs = weak_programs(512, 32, 4,
                                                            kEpochs);
  jitter_compute(programs, seed);
  const simnet::event::EngineResult r =
      simnet::event::run_programs(*topo::make_fabric("fat-tree", 512),
                                  programs);
  rec.layer("simnet.event.modeled_epoch_us", r.max_time() / kEpochs * 1e6);
}

}  // namespace

Calibration calibrate_host(const Tiers& t, bool smoke, Record& rec) {
  // Ms, Ms,1: two arrays of 2 x LLC each, so the copy's working set is
  // >= 4 x LLC.  Mc: a working set of LLC / 4.
  const std::size_t mem_elems =
      smoke ? (std::size_t{1} << 22) : 2 * t.llc_bytes / sizeof(double);
  const std::size_t llc_elems = t.llc_bytes / 4 / sizeof(double) / 2;
  Calibration c;
  c.ms = perfmodel::stream_copy(mem_elems, t.threads, true).bytes_per_second;
  c.ms1 = perfmodel::stream_copy(mem_elems, 1, true).bytes_per_second;
  c.mc = perfmodel::stream_copy(llc_elems, t.threads, false, 20)
             .bytes_per_second;
  rec.layer("perfmodel.stream.ms_gbs", c.ms / 1e9);
  rec.layer("perfmodel.stream.ms1_gbs", c.ms1 / 1e9);
  rec.layer("perfmodel.stream.mc_gbs", c.mc / 1e9);
  rec.host("calibration",
           "{\"ms_gbs\": " + json_number(c.ms / 1e9) +
               ", \"ms1_gbs\": " + json_number(c.ms1 / 1e9) +
               ", \"mc_gbs\": " + json_number(c.mc / 1e9) +
               ", \"model\": \"calibrated-in-bench\"}");
  return c;
}

void run_probes(const Options& o, const Tiers& t, Record& rec) {
  rec.layer("core.kernels.jacobi_row.gbs", row_kernel_gbs<false>(t, o.seed));
  rec.layer("core.kernels.jacobi_row_nt.gbs", row_kernel_gbs<true>(t, o.seed));
  rec.layer("core.sync.barrier_ns", barrier_ns(t.threads));
  rec.layer("simnet.comm.face_roundtrip_us", face_roundtrip_us(t));
  session_probe(t, o.seed, rec);
  event_probe(o.seed, rec);
}

}  // namespace tb::bench
