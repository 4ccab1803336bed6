// Metrics registry: named counters, gauges and timing histograms with
// lock-free updates and a process-wide current registry.
//
// Lookup (`Registry::counter("core.lups")`) takes a mutex and returns a
// stable reference — do it once outside the hot loop; the returned
// objects update with single relaxed/CAS atomics and are safe to hit
// from any number of threads.
//
// `Registry::global()` is the process-wide default.  A RegistryScope
// swaps in an explicit registry for its lifetime (the hook a future
// job server needs to run per-job registries); instrumentation sites
// always write through global(), so scoping is transparent to them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

namespace tb::obs {

/// Monotone event count (LUPs retired, messages sent, cache hits).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (a configuration knob, a derived rate).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-bucketed distribution with exact count/sum/min/max — sized for
/// timing samples in seconds (bucket_of spans ~1e-12 s to ~8e6 s), but
/// unit-agnostic: bucket b collects values in [2^(b-40), 2^(b-39)).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index of a value (0 collects non-positive + tiny values).
  [[nodiscard]] static int bucket_of(double v);

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// +inf / -inf when no sample was observed.
  [[nodiscard]] double min() const {
    return min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Named metric store.  Metrics are created on first lookup and live as
/// long as the registry; references stay valid across further lookups.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The current process-wide registry (the default one unless a
  /// RegistryScope is active).
  [[nodiscard]] static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-only value of a counter, 0 when it does not exist — lets
  /// report code query names without creating them.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  /// Zeroes every registered metric (keeps the names registered).
  void reset();

  /// (name, histogram sum) of every histogram whose name ends in the
  /// given suffix — the per-phase seconds breakdown run rows embed.
  [[nodiscard]] std::vector<std::pair<std::string, double>> sums_with_suffix(
      std::string_view suffix = ".seconds") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Swaps `r` in as the global registry for the scope's lifetime.
/// Scopes must nest (destroy in reverse construction order).
class RegistryScope {
 public:
  explicit RegistryScope(Registry& r);
  ~RegistryScope();
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

 private:
  Registry* prev_;
};

/// RAII timing sample: observes the elapsed seconds into a histogram on
/// destruction.  Pass nullptr to make it a no-op (the disabled path).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h), t0_(h != nullptr ? now_ns() : 0) {}
  ~ScopedTimer() {
    if (h_ != nullptr)
      h_->observe(static_cast<double>(now_ns() - t0_) * 1e-9);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t t0_;
};

}  // namespace tb::obs
