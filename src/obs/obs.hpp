// Telemetry gating and the shared trace clock.
//
// The whole observability layer (obs/registry.hpp counters and timing
// sums, obs/trace.hpp in-memory spans, obs/rundb.hpp run rows) hangs off
// one process-wide switch:
//
//   enabled()  —  true when the TB_TELEMETRY environment variable is set
//                 (and not "0"), or after set_enabled(true) — which is
//                 what SolverConfig::telemetry routes through.
//
// Hot paths are expected to hoist `const bool tel = obs::enabled();`
// out of their loops, so a disabled build pays one relaxed atomic load
// per solver run plus a predictable per-sweep branch — bench/suite's
// obs.overhead_frac (traced over untraced MLUP/s) measures the cost.
//
// Cold paths (the tuner, the caches) may count unconditionally: their
// counters cost nothing next to a timed probe, and examples/autotune
// wants them visible without flipping the hot-path switch.
#pragma once

#include <atomic>
#include <cstdint>

namespace tb::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// Is telemetry on?  Relaxed load; hoist out of hot loops.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// TB_TELEMETRY truthiness (read once, cached): set and not "0".
[[nodiscard]] bool env_enabled();

/// Programmatic override: set_enabled(true) turns telemetry on (the
/// SolverConfig::telemetry path); set_enabled(false) turns it back off
/// unless TB_TELEMETRY keeps it on (the environment always wins).
void set_enabled(bool on);

/// Nanoseconds on the steady clock since a process-local epoch — the
/// time base every trace event and timing sample shares.
[[nodiscard]] std::uint64_t now_ns();

}  // namespace tb::obs
