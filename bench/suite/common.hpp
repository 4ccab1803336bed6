// Shared plumbing of tb_bench: run options, cache-derived grid tiers,
// seeded inputs, bitwise grid hashes, and the one-line JSON record each
// workload prints for bench/suite/run.py.
//
// tb_bench reports raw samples (per-call times, per-set-up times, per-pass
// rates); run.py turns them into medians, percentiles and quartiles, so
// all statistics live in one tested place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "perfmodel/model_api.hpp"
#include "simnet/rank_program.hpp"

namespace tb::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (run.py computes the reported
/// statistics; this serves the per-layer values tb_bench finishes).
[[nodiscard]] double median(std::vector<double> v);

/// Opens a pass's memory window: hands the memory the allocator caches
/// back to the OS and resets the kernel's peak-RSS mark (Linux), so each
/// pass reports its own peak instead of the allocator's history across
/// passes (how many ran, how their frees fragmented the thread arenas).
void begin_memory_window();

/// Peak resident set in MiB since begin_memory_window().
[[nodiscard]] double window_peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured (closed-loop) time per run
  bool smoke = false;     ///< in-cache sizes, two samples per series
  bool traced = false;    ///< telemetry on: also collect per-layer values
};

/// Grid sizes derived from the probed caches (never constants), plus the
/// worker thread count T = min(4, nproc) every workload uses.
struct Tiers {
  int threads = 1;
  std::size_t l2_bytes = 0;   ///< per-core L2 as probed
  std::size_t llc_bytes = 0;  ///< last-level cache as probed
  int l2_n = 0;    ///< largest multiple of 32: 16 n^3 <= T * L2
  int llc_n = 0;   ///< largest multiple of 32: 16 n^3 <= LLC / 4
  int mem_n = 0;   ///< smallest multiple of 16: 8 n^3 >= 4 * LLC
  int dist_n = 0;  ///< per-rank subdomain: 2 ranks * 16 n^3 <= LLC / 4
};

[[nodiscard]] Tiers probe_tiers(bool smoke);

/// Counter-based seeded value in [0.5, 1.5) for linear index `i`: the
/// same seed gives the same grid for any thread count, and the range
/// keeps long Jacobi runs far from denormals.
[[nodiscard]] double seeded_value(std::uint64_t seed, std::uint64_t i);

/// Fills every cell (boundary included) with seeded values, split over
/// `threads` z-slabs so the pages are first touched in parallel.
void fill_seeded(core::Grid3& g, std::uint64_t seed, int threads);

/// Order-sensitive 64-bit hash of every unpadded cell's bit pattern:
/// equal hashes mean bitwise-equal grids for the purpose of the checks.
[[nodiscard]] std::uint64_t grid_hash(const core::Grid3& g, int threads);

/// Seeded uniform [0, 1) stream (splitmix64) for orders and jitter.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

/// Calibrated host bandwidths (perfmodel::stream_copy), bytes/s.
struct Calibration {
  double ms = 0.0;   ///< saturated, working set >= 4 x LLC, T threads
  double ms1 = 0.0;  ///< one thread, same working set
  double mc = 0.0;   ///< T threads, working set LLC / 4
};

/// topo::host_machine() with the measured bandwidths substituted — the
/// model behind every model_ratio the suite reports.
[[nodiscard]] perfmodel::NodeModel calibrated_model(const Calibration& c);

/// Weak-scaling halo programs: `n`^3 interior cells per rank on a
/// near-cubic process grid, `halo` levels per epoch, no jitter.
[[nodiscard]] std::vector<simnet::RankProgram> weak_programs(int ranks, int n,
                                                             int halo,
                                                             int epochs);

/// Scales every kCompute op by a seeded factor in [0.9, 1.1).
void jitter_compute(std::vector<simnet::RankProgram>& programs,
                    std::uint64_t seed);

/// Everything one tb_bench run reports.  Series are raw samples; layers
/// are finished per-layer values (traced runs only).
class Record {
 public:
  void sample(const std::string& series, double v) {
    series_[series].push_back(v);
  }
  void layer(const std::string& name, double v) { layers_[name] = v; }
  void host(const std::string& key, const std::string& json_value) {
    host_[key] = json_value;
  }
  /// One correctness check; failures are listed in the output.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The single-line JSON object run.py parses.
  [[nodiscard]] std::string json(const Options& o) const;

 private:
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> layers_;
  std::map<std::string, std::string> host_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

/// JSON number with all 17 significant digits ("null" when not finite).
[[nodiscard]] std::string json_number(double v);

/// Host fingerprint and tier sizes into rec.host(...).
void describe_host(const Tiers& t, Record& rec);

/// Measures Ms, Ms,1 and Mc with perfmodel::stream_copy and records them
/// in the host fingerprint and as per-layer values.
Calibration calibrate_host(const Tiers& t, bool smoke, Record& rec);

/// Workload-independent layer probes, taken once per result set by the
/// traced "host" run: row kernels, the spin barrier, a face-sized Comm
/// round trip, a session miss/hit, the cluster fabric and program builds
/// and a small seeded event-engine replay.
void run_probes(const Options& o, const Tiers& t, Record& rec);

void run_jacobi_mem(const Options& o, const Tiers& t, Record& rec);
void run_scenario_mix(const Options& o, const Tiers& t, Record& rec);
void run_dist_hybrid(const Options& o, const Tiers& t, Record& rec);
void run_cluster_sim(const Options& o, const Tiers& t, Record& rec);

}  // namespace tb::bench
