// Metrics registry: named counters and timing sums with lock-free
// updates, one per process.
//
// Lookup (`Registry::counter("core.lups")`) takes a mutex and returns a
// stable reference — do it once outside the hot loop; the returned
// objects update with single relaxed/CAS atomics and are safe to hit
// from any number of threads.  Readers take deltas of `value()` and
// `sum()` around the interval they measure; nothing is ever reset.
#pragma once

#include <atomic>
#include <cstdint>
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

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Sample count and sum of a timing series (seconds by convention; the
/// `.seconds` suffix is what run rows collect).  The name is historical:
/// only the count and the sum are kept.
class Histogram {
 public:
  void observe(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric store.  Metrics are created on first lookup and live as
/// long as the registry; references stay valid across further lookups.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every instrumentation site writes to.
  [[nodiscard]] static Registry& global();

  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Read-only value of a counter, 0 when it does not exist — lets
  /// report code query names without creating them.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// (name, histogram sum) of every histogram whose name ends in the
  /// given suffix — the per-phase seconds breakdown run rows embed.
  [[nodiscard]] std::vector<std::pair<std::string, double>> sums_with_suffix(
      std::string_view suffix = ".seconds") const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
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
