// In-memory span tracing, written out as one Chrome trace file.
//
// Instrumented threads append completed spans to one buffer behind one
// mutex; stop() (or process exit) sorts the buffer and writes a Chrome
// `trace_event` JSON file (open it in chrome://tracing or
// https://ui.perfetto.dev).  Spans are coarse — one per sweep, epoch,
// case or exchange direction, per thread — so one lock is enough.  The
// buffer holds at most Trace::kMaxEvents spans; later ones are counted
// in dropped() instead of stored, so a session's memory is bounded.
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
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
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

/// The trace session.  instance() lazily constructs the singleton and —
/// when TB_TELEMETRY is set — auto-starts a session writing Chrome JSON
/// to $TB_TRACE (default "tb_trace.json").  The file is written by an
/// explicit stop() or at process exit.
class Trace {
 public:
  /// Spans one session keeps (~40 MiB of 40-byte events).
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 20;

  static Trace& instance();

  /// Starts a session that writes Chrome JSON to `chrome_path` at stop()
  /// (no-op if one is running; empty path = write nothing).  Resets
  /// recorded() and dropped().
  void start(const std::string& chrome_path);

  /// Ends the session and writes its file, sorted by (tid, t0, dur desc)
  /// so per-thread timestamps are monotone and enclosing spans precede
  /// the spans they contain.  The buffer leaves the lock before the
  /// file is written, so a late record() never waits on I/O.  Returns
  /// false, after a warning on stderr, when the file cannot be written.
  bool stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  /// Appends one completed span; ignored when no session runs.
  void record(const char* name, const char* cat, std::uint64_t t0_ns,
              std::uint64_t dur_ns);

  /// Spans stored / spans refused by the kMaxEvents cap, this session
  /// (kept after stop() until the next start()).
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  ~Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

 private:
  Trace() = default;

  // mu_ guards the members below; running_ is written under it and read
  // without it.
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::string path_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::atomic<bool> running_{false};
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
