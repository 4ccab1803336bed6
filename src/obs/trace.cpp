#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace tb::obs {

namespace {

/// Writes Chrome trace_event JSON; false when the file cannot be
/// opened or fully written.
bool write_chrome(const std::string& path, std::vector<TraceEvent>& events) {
  // (tid, t0, longer-span-first) gives monotone per-thread timestamps
  // and puts enclosing spans before the spans they contain, which is
  // what the Catapult/Perfetto importer expects for "X" events.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                 e.name, e.cat, e.tid,
                 static_cast<double>(e.t0_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3,
                 i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace

Trace& Trace::instance() {
  static Trace t;
  static const bool auto_start = [] {
    if (!env_enabled()) return false;
    const char* chrome = std::getenv("TB_TRACE");
    t.start((chrome != nullptr && chrome[0] != '\0') ? chrome
                                                      : "tb_trace.json");
    return true;
  }();
  (void)auto_start;
  return t;
}

void Trace::start(const std::string& chrome_path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running()) return;
  events_.clear();
  path_ = chrome_path;
  recorded_ = 0;
  dropped_ = 0;
  running_.store(true, std::memory_order_relaxed);
}

bool Trace::stop() {
  std::vector<TraceEvent> events;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running()) return true;
    running_.store(false, std::memory_order_relaxed);
    events.swap(events_);
    path.swap(path_);
  }
  if (path.empty() || write_chrome(path, events)) return true;
  std::fprintf(stderr, "warning: cannot write trace %s\n", path.c_str());
  return false;
}

Trace::~Trace() { stop(); }

void Trace::record(const char* name, const char* cat, std::uint64_t t0_ns,
                   std::uint64_t dur_ns) {
  static std::atomic<std::uint32_t> next_tid{0};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!running()) return;
  if (events_.size() < kMaxEvents) {
    events_.push_back(TraceEvent{name, cat, t0_ns, dur_ns, tid});
    ++recorded_;
  } else {
    ++dropped_;
  }
}

std::uint64_t Trace::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t Trace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace tb::obs
