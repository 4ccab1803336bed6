#include "obs/registry.hpp"

namespace tb::obs {

namespace {

// CAS loop for the atomic<double> sum (no fetch_add for doubles until
// C++20 libstdc++ catches up on all our targets).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
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

}  // namespace tb::obs
