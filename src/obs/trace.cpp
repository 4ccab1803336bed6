#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace tb::obs {

namespace {

/// How often the writer thread drains the rings while a session runs.
constexpr std::chrono::milliseconds kDrainInterval{10};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------- TraceRing

TraceRing::TraceRing(std::size_t capacity_hint)
    : buf_(round_up_pow2(capacity_hint)), mask_(buf_.size() - 1) {}

bool TraceRing::push(const TraceEvent& e) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  buf_[head & mask_] = e;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void TraceRing::drain(std::vector<TraceEvent>& out) {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  for (; tail != head; ++tail) out.push_back(buf_[tail & mask_]);
  tail_.store(tail, std::memory_order_release);
}

// -------------------------------------------------------------------- sinks

void ChromeTraceSink::consume(const TraceEvent* events, std::size_t n) {
  events_.insert(events_.end(), events, events + n);
}

void ChromeTraceSink::close() {
  // (tid, t0, longer-span-first) gives monotone per-thread timestamps
  // and puts enclosing spans before the spans they contain, which is
  // what the Catapult/Perfetto importer expects for "X" events.
  std::sort(events_.begin(), events_.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                 e.name, e.cat, e.tid,
                 static_cast<double>(e.t0_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3,
                 i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  events_.clear();
}

// -------------------------------------------------------------------- Trace

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
  begin_session(chrome_path.empty()
                    ? nullptr
                    : std::make_unique<ChromeTraceSink>(chrome_path),
                nullptr);
}

void Trace::start_with_sink(TraceSink* sink) { begin_session(nullptr, sink); }

void Trace::begin_session(std::unique_ptr<TraceSink> owned,
                          TraceSink* sink) {
  if (running()) return;
  discard_pending();
  {
    std::lock_guard<std::mutex> lock(mu_);
    owned_sinks_.clear();
    sinks_.clear();
    if (owned != nullptr) {
      sink = owned.get();
      owned_sinks_.push_back(std::move(owned));
    }
    if (sink != nullptr) sinks_.push_back(sink);
  }
  recorded_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  writer_ = std::thread(&Trace::writer_loop, this);
}

void Trace::stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  drain_all();
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSink* s : sinks_) s->close();
  sinks_.clear();
  owned_sinks_.clear();
}

Trace::~Trace() { stop(); }

void Trace::record(const char* name, const char* cat, std::uint64_t t0_ns,
                   std::uint64_t dur_ns) {
  thread_local ThreadBuffer* tls = nullptr;
  if (tls == nullptr) tls = register_thread();
  if (tls->ring.push(
          TraceEvent{name, cat, t0_ns, dur_ns, tls->tid}))
    recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Trace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t d = 0;
  for (const auto& b : buffers_) d += b->ring.dropped();
  return d - dropped_baseline_;
}

Trace::ThreadBuffer* Trace::register_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>(
      static_cast<std::uint32_t>(buffers_.size())));
  return buffers_.back().get();
}

void Trace::writer_loop() {
  std::unique_lock<std::mutex> lock(cv_mu_);
  while (running_.load(std::memory_order_relaxed)) {
    cv_.wait_for(lock, kDrainInterval);
    drain_all();
  }
}

void Trace::drain_all() {
  std::vector<ThreadBuffer*> bufs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bufs.reserve(buffers_.size());
    for (auto& b : buffers_) bufs.push_back(b.get());
  }
  scratch_.clear();
  for (ThreadBuffer* b : bufs) b->ring.drain(scratch_);
  if (scratch_.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (TraceSink* s : sinks_) s->consume(scratch_.data(), scratch_.size());
}

void Trace::discard_pending() {
  std::lock_guard<std::mutex> lock(mu_);
  scratch_.clear();
  std::uint64_t d = 0;
  for (auto& b : buffers_) {
    b->ring.drain(scratch_);
    d += b->ring.dropped();
  }
  scratch_.clear();
  dropped_baseline_ = d;
}

}  // namespace tb::obs
