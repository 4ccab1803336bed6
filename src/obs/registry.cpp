#include "obs/registry.hpp"

#include <cmath>

namespace tb::obs {

namespace {

// CAS loops for atomic<double> sum/min/max (no fetch_add for doubles
// until C++20 libstdc++ catches up on all our targets).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::atomic<Registry*> g_current{nullptr};

}  // namespace

int Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;
  const int b = std::ilogb(v) + 40;
  if (b < 0) return 0;
  if (b >= kBuckets) return kBuckets - 1;
  return b;
}

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
  buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry def;
  Registry* cur = g_current.load(std::memory_order_acquire);
  return cur != nullptr ? *cur : def;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  return *it->second;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second->value() : 0;
}

double Registry::gauge_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second->value() : 0.0;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, c] : counters_) c->reset();
  for (auto& [k, g] : gauges_) g->reset();
  for (auto& [k, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, double>> Registry::sums_with_suffix(
    std::string_view suffix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [k, h] : histograms_) {
    if (k.size() < suffix.size()) continue;
    if (std::string_view(k).substr(k.size() - suffix.size()) != suffix)
      continue;
    if (h->count() == 0) continue;
    out.emplace_back(k, h->sum());
  }
  return out;
}

RegistryScope::RegistryScope(Registry& r)
    : prev_(g_current.exchange(&r, std::memory_order_acq_rel)) {}

RegistryScope::~RegistryScope() {
  g_current.store(prev_, std::memory_order_release);
}

}  // namespace tb::obs
