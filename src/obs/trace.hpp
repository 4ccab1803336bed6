// Per-thread event tracing with an async writer thread.
//
// Shape follows gacspp's COutput/IDatabase split: producer threads
// write fixed-size records into their own lock-free ring (one SPSC
// ring per registered thread — producer pushes, the single writer
// thread drains), and the writer thread periodically flushes every
// ring into pluggable sinks.  One sink ships: a Chrome `trace_event`
// JSON (open the file in chrome://tracing or https://ui.perfetto.dev);
// CollectSink is the in-memory test fake behind the same interface.
//
// Producers use the Span RAII type:
//
//   { tb::obs::Span s("baseline.sweep", "core"); ... }   // one event
//
// Span checks obs::enabled() && Trace::instance().running() once at
// construction; when tracing is off it costs two relaxed loads.
// Event name/category must be string literals (or otherwise outlive
// the Trace session): records store the pointers, not copies.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace tb::obs {

/// One completed span. `ts`/`dur` are nanoseconds on the now_ns()
/// clock; `tid` is a small dense id assigned per producer thread.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// Single-producer single-consumer ring of TraceEvents.  The producer
/// (one instrumented thread) calls push(); the consumer (the writer
/// thread) calls drain().  Capacity is rounded up to a power of two;
/// push on a full ring drops the event and bumps the dropped counter —
/// telemetry must never block a solver thread.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity_hint = 1u << 12);

  bool push(const TraceEvent& e);

  /// Moves every available event into `out` (appends). Consumer-only.
  void drain(std::vector<TraceEvent>& out);

  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<TraceEvent> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // next write (producer)
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // next read (consumer)
  std::atomic<std::uint64_t> dropped_{0};
};

/// Where drained events go.  consume() is only ever called from the
/// writer thread (single-threaded), close() once at session end.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const TraceEvent* events, std::size_t n) = 0;
  virtual void close() = 0;
};

/// Buffers the whole session, then writes Chrome trace_event JSON on
/// close: sorted by (tid, t0, dur desc) so per-thread timestamps are
/// monotone and nested spans appear parent-first.
class ChromeTraceSink final : public TraceSink {
 public:
  explicit ChromeTraceSink(std::string path) : path_(std::move(path)) {}
  void consume(const TraceEvent* events, std::size_t n) override;
  void close() override;

 private:
  std::string path_;
  std::vector<TraceEvent> events_;
};

/// Test sink: collects everything in memory.
class CollectSink final : public TraceSink {
 public:
  void consume(const TraceEvent* events, std::size_t n) override {
    events_.insert(events_.end(), events, events + n);
  }
  void close() override { closed_ = true; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool closed() const { return closed_; }

 private:
  std::vector<TraceEvent> events_;
  bool closed_ = false;
};

/// The trace session: owns the per-thread rings, the sinks, and the
/// writer thread.  instance() lazily constructs the singleton and —
/// when TB_TELEMETRY is set — auto-starts a session writing Chrome
/// JSON to $TB_TRACE (default "tb_trace.json").  Every registered thread
/// gets a ring of TraceRing's default capacity, and the writer drains
/// them every 10 ms; stop() drains them once more, so no event recorded
/// before stop() is left behind.  The session is closed and the file
/// written either by an explicit stop() or at process exit.
class Trace {
 public:
  static Trace& instance();

  /// Starts a session writing Chrome JSON to `chrome_path` (no-op if one
  /// is running; empty path = no sink). Events left over in the rings
  /// from an earlier session are discarded.
  void start(const std::string& chrome_path);
  /// For tests: start with an externally owned sink.
  void start_with_sink(TraceSink* sink);

  /// Stops the writer thread, drains every ring, closes sinks.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  /// Records one completed span into the calling thread's ring
  /// (registering the thread on first use). Only valid while running.
  void record(const char* name, const char* cat, std::uint64_t t0_ns,
              std::uint64_t dur_ns);

  [[nodiscard]] std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  /// Events lost to full rings across the current session.
  [[nodiscard]] std::uint64_t dropped() const;

  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

 private:
  Trace() = default;
  struct ThreadBuffer {
    explicit ThreadBuffer(std::uint32_t id) : tid(id) {}
    TraceRing ring;
    std::uint32_t tid;
  };
  ThreadBuffer* register_thread();
  void writer_loop();
  void drain_all();
  void discard_pending();
  void begin_session(std::unique_ptr<TraceSink> owned, TraceSink* sink);

  // Thread buffers are registered once per thread and never removed
  // (solver pool threads outlive sessions); sessions reuse them and
  // discard whatever a previous session left behind.
  mutable std::mutex mu_;  // guards buffers_/sinks_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<TraceSink*> sinks_;
  std::vector<std::unique_ptr<TraceSink>> owned_sinks_;
  std::thread writer_;
  std::condition_variable cv_;
  std::mutex cv_mu_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> recorded_{0};
  std::uint64_t dropped_baseline_ = 0;
  std::vector<TraceEvent> scratch_;  // writer-thread drain buffer
};

/// RAII span: measures construction→destruction and records it into
/// the current trace session.  Inert when telemetry or the session is
/// off.  `name`/`cat` must outlive the session (use string literals).
class Span {
 public:
  Span(const char* name, const char* cat) {
    if (enabled()) {
      Trace& t = Trace::instance();
      if (t.running()) {
        trace_ = &t;
        name_ = name;
        cat_ = cat;
        t0_ = now_ns();
      }
    }
  }
  ~Span() {
    if (trace_ != nullptr)
      trace_->record(name_, cat_, t0_, now_ns() - t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_ = nullptr;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t t0_ = 0;
};

}  // namespace tb::obs
