#include "common.hpp"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "topo/affinity.hpp"
#include "topo/machine.hpp"
#include "util/simd.hpp"

namespace tb::bench {

namespace {

/// Runs fn(lo, hi) over `threads` contiguous slices of [0, n).
template <class Fn>
void parallel_slices(int threads, int n, Fn fn) {
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w)
    pool.emplace_back([&, w] { fn(n * w / threads, n * (w + 1) / threads); });
  for (std::thread& th : pool) th.join();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h ^= w * 0x87C37B91114253D5ull;
  h = (h << 31) | (h >> 33);
  return h * 0x4CF5AD432745937Full;
}

double cube(int n) { return static_cast<double>(n) * n * n; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void begin_memory_window() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

double window_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Tiers probe_tiers(bool smoke) {
  const topo::MachineSpec m = topo::host_machine();
  Tiers t;
  t.threads = std::clamp(topo::hardware_cores(), 1, 4);
  t.l2_bytes = m.private_cache_bytes;
  t.llc_bytes = m.shared_cache_bytes;
  if (smoke) {
    t.l2_n = 32;
    t.llc_n = 48;
    t.mem_n = 64;
    t.dist_n = 32;
    return t;
  }
  const double l2 = static_cast<double>(t.l2_bytes) * t.threads;
  const double llc = static_cast<double>(t.llc_bytes);
  t.l2_n = 32;
  while (16.0 * cube(t.l2_n + 32) <= l2) t.l2_n += 32;
  t.llc_n = 32;
  while (16.0 * cube(t.llc_n + 32) <= llc / 4) t.llc_n += 32;
  t.mem_n = 16;
  while (8.0 * cube(t.mem_n) < 4 * llc) t.mem_n += 16;
  t.dist_n = 32;
  while (2 * 16.0 * cube(t.dist_n + 32) <= llc / 4) t.dist_n += 32;
  return t;
}

double seeded_value(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t r = splitmix64(splitmix64(seed) ^ i);
  return 0.5 + static_cast<double>(r >> 11) * 0x1.0p-53;
}

void fill_seeded(core::Grid3& g, std::uint64_t seed, int threads) {
  parallel_slices(threads, g.nz(), [&](int k0, int k1) {
    for (int k = k0; k < k1; ++k)
      for (int j = 0; j < g.ny(); ++j) {
        double* row = g.row(j, k);
        const std::uint64_t base =
            (static_cast<std::uint64_t>(k) * g.ny() + j) * g.nx();
        for (int i = 0; i < g.stride_x(); ++i)
          row[i] = i < g.nx() ? seeded_value(seed, base + i) : 0.0;
      }
  });
}

std::uint64_t grid_hash(const core::Grid3& g, int threads) {
  std::vector<std::uint64_t> planes(static_cast<std::size_t>(g.nz()));
  parallel_slices(threads, g.nz(), [&](int k0, int k1) {
    for (int k = k0; k < k1; ++k) {
      std::uint64_t h = static_cast<std::uint64_t>(k) + 1;
      for (int j = 0; j < g.ny(); ++j) {
        const double* row = g.row(j, k);
        for (int i = 0; i < g.nx(); ++i) {
          std::uint64_t bits;
          std::memcpy(&bits, row + i, sizeof bits);
          h = mix(h, bits);
        }
      }
      planes[static_cast<std::size_t>(k)] = h;
    }
  });
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (std::uint64_t p : planes) h = mix(h, p);
  return h;
}

std::uint64_t Rng::next() {
  s_ += 0x9E3779B97F4A7C15ull;
  return splitmix64(s_);
}

perfmodel::NodeModel calibrated_model(const Calibration& c) {
  topo::MachineSpec m = topo::host_machine();
  m.mem_bw_socket = c.ms;
  m.mem_bw_single = c.ms1;
  m.cache_bw = c.mc;
  return perfmodel::NodeModel(m);
}

void Record::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  if (failures_.size() < 20) failures_.push_back(what);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Record::json(const Options& o) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(o.workload) << ", \"seed\": "
     << o.seed << ", \"seconds\": " << json_number(o.seconds)
     << ", \"smoke\": " << (o.smoke ? "true" : "false")
     << ", \"traced\": " << (o.traced ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? ", " : "") << json_string(failures_[i]);
  os << "], \"host\": {";
  bool first = true;
  for (const auto& [k, v] : host_) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "}, \"series\": {";
  first = true;
  for (const auto& [k, vs] : series_) {
    os << (first ? "" : ", ") << json_string(k) << ": [";
    for (std::size_t i = 0; i < vs.size(); ++i)
      os << (i ? ", " : "") << json_number(vs[i]);
    os << "]";
    first = false;
  }
  os << "}, \"layers\": {";
  first = true;
  for (const auto& [k, v] : layers_) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

void describe_host(const Tiers& t, Record& rec) {
  rec.host("cpu", json_string(cpu_model()));
  rec.host("nproc", std::to_string(std::thread::hardware_concurrency()));
  rec.host("threads", std::to_string(t.threads));
  rec.host("l2_bytes", std::to_string(t.l2_bytes));
  rec.host("llc_bytes", std::to_string(t.llc_bytes));
  rec.host("simd", json_string(util::simd::kIsaName));
  rec.host("compiler", json_string(compiler()));
  const auto tier = [](int n, double grids) {
    return "{\"n\": " + std::to_string(n) +
           ", \"bytes\": " + json_number(grids * 8.0 * cube(n)) + "}";
  };
  // Byte footprints: two grids per solver, two ranks for the dist tier.
  rec.host("tier_l2", tier(t.l2_n, 2));
  rec.host("tier_llc", tier(t.llc_n, 2));
  rec.host("tier_mem", tier(t.mem_n, 2));
  rec.host("tier_dist", tier(t.dist_n, 4));
}

}  // namespace tb::bench
