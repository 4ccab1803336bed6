// Observability layer: registry semantics, the trace buffer under
// concurrent producers and its cap, Chrome trace output, and the
// contract that matters most — instrumentation never changes a solver's
// answer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/rundb.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace tb;

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterGaugeHistogramBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_value("t.counter"), 42u);
  EXPECT_EQ(reg.counter_value("t.absent"), 0u);  // query, don't create

  obs::Histogram& h = reg.histogram("t.hist.seconds");
  h.observe(0.5);
  h.observe(0.25);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.75);

  // Lookup is create-on-first-use and returns stable references.
  EXPECT_EQ(&reg.counter("t.counter"), &c);
  EXPECT_EQ(&reg.histogram("t.hist.seconds"), &h);
}

TEST(ObsRegistry, PhaseSumsAndScope) {
  obs::Registry reg;
  reg.histogram("t.phase.seconds").observe(1.5);
  reg.histogram("t.other.bytes").observe(8.0);
  (void)reg.histogram("t.idle.seconds");  // never observed: no phase

  const auto sums = reg.sums_with_suffix(".seconds");
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0].first, "t.phase.seconds");
  EXPECT_DOUBLE_EQ(sums[0].second, 1.5);
}

TEST(ObsRegistry, ScopedTimerObservesAndNullIsNoop) {
  obs::Registry reg;
  { obs::ScopedTimer off(nullptr); }  // must not crash
  obs::Histogram& h = reg.histogram("t.timed.seconds");
  { obs::ScopedTimer on(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ObsRegistry, CountersAreRaceFreeAcrossThreads) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.race");
  constexpr int kThreads = 4, kAdds = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// ---------------------------------------------------------------- trace

/// Reads a Chrome trace file back through util::json and returns its
/// "traceEvents" array, checking that timestamps are monotone per tid.
util::json::Array read_trace_events(const std::string& path) {
  const util::json::Value doc = util::json::parse_file(path);
  util::json::Array events = doc.get("traceEvents").as_array();
  std::map<int, double> last_ts;
  for (const util::json::Value& e : events) {
    const int tid = e.get("tid").as_int();
    const double ts = e.get("ts").as_number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "tid " << tid;
    }
    last_ts[tid] = ts;
  }
  return events;
}

TEST(ObsTrace, SessionCollectsSpansFromManyThreads) {
  const std::string path = testing::TempDir() + "obs_many_threads.json";
  obs::set_enabled(true);
  obs::Trace& trace = obs::Trace::instance();
  trace.start(path);

  constexpr int kThreads = 3, kSpans = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) obs::Span span("test.span", "test");
    });
  for (std::thread& w : workers) w.join();

  ASSERT_TRUE(trace.stop());
  obs::set_enabled(false);

  EXPECT_EQ(trace.recorded(), static_cast<std::uint64_t>(kThreads) * kSpans);
  EXPECT_EQ(trace.dropped(), 0u);
  const util::json::Array events = read_trace_events(path);
  std::remove(path.c_str());
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpans);
  for (const util::json::Value& e : events)
    EXPECT_EQ(e.get("name").as_string(), "test.span");
}

// Spans past the cap are counted, not stored, and the counts survive
// stop() so a report can read them after the file is written.
TEST(ObsTrace, CapCountsDrops) {
  obs::Trace& trace = obs::Trace::instance();
  trace.start("/dev/null");
  for (std::size_t i = 0; i < obs::Trace::kMaxEvents + 10; ++i)
    trace.record("cap", "test", i, 1);
  EXPECT_TRUE(trace.stop());
  EXPECT_EQ(trace.recorded(), obs::Trace::kMaxEvents);
  EXPECT_EQ(trace.dropped(), 10u);
}

// Producers keep recording while sessions start and stop under them:
// every session's file must parse and hold exactly the spans it counted
// (the ThreadSanitizer check of the buffer's move-out-then-write path).
TEST(ObsTrace, StartStopWhileProducersRecord) {
  obs::set_enabled(true);
  obs::Trace& trace = obs::Trace::instance();
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t)
    producers.emplace_back([&done] {
      while (!done.load(std::memory_order_relaxed)) {
        obs::Span span("test.loop", "test");
        std::this_thread::yield();
      }
    });
  for (int cycle = 0; cycle < 5; ++cycle) {
    const std::string path = testing::TempDir() + "obs_cycle_" +
                             std::to_string(cycle) + ".json";
    trace.start(path);
    while (trace.recorded() < 100) std::this_thread::yield();
    ASSERT_TRUE(trace.stop());
    const util::json::Array events = read_trace_events(path);
    std::remove(path.c_str());
    EXPECT_EQ(events.size(), trace.recorded()) << "cycle " << cycle;
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& p : producers) p.join();
  obs::set_enabled(false);
}

TEST(ObsTrace, UnwritablePathWarns) {
  const std::string path = "/nonexistent_dir/trace.json";
  obs::Trace& trace = obs::Trace::instance();
  trace.start(path);
  trace.record("lost", "test", 0, 1);
  testing::internal::CaptureStderr();
  const bool written = trace.stop();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(written);
  EXPECT_NE(err.find("warning: cannot write trace " + path),
            std::string::npos)
      << err;
}

// ----------------------------------------------------- chrome trace file

TEST(ObsTrace, ChromeTraceFileIsWellFormedAndMonotonePerThread) {
  const std::string path = "test_obs_trace.json";
  obs::set_enabled(true);
  {
    obs::Trace::instance().start(path);

    core::Grid3 initial(12, 12, 12);
    core::fill_test_pattern(initial);
    core::SolverConfig cfg;
    cfg.baseline.threads = 2;
    cfg.baseline.block = {12, 4, 4};
    core::StencilSolver solver =
        core::make_solver("baseline", "jacobi", cfg, initial);
    solver.advance(4);

    obs::Trace::instance().stop();
  }
  obs::set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  EXPECT_EQ(text.find('{'), 0u);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"baseline.sweep\""), std::string::npos);
  EXPECT_NE(text.find("\"baseline.barrier\""), std::string::npos);

  // Every "X" event carries tid/ts/dur; within one tid the (sorted)
  // file's timestamps must be monotone — what Perfetto requires.
  std::map<unsigned, double> last_ts;
  std::size_t events = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    unsigned tid = 0;
    double ts = -1.0, dur = -1.0;
    ASSERT_EQ(std::sscanf(line.c_str() + line.find("\"tid\""),
                          "\"tid\": %u, \"ts\": %lf, \"dur\": %lf", &tid,
                          &ts, &dur),
              3)
        << line;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "tid " << tid;
    }
    last_ts[tid] = ts;
    ++events;
  }
  EXPECT_GT(events, 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------- run rows (satellite)

// A scenario or case name may legally hold a newline once util::json has
// decoded it; the row must still be one JSONL line that parses back equal,
// carrying the schema version and the model-vs-measured keys.
TEST(ObsRunDb, RowWithQuotesBackslashesAndNewlinesStaysOneLine) {
  const std::string hostile = "a\"b\\c\nd";
  obs::RunRow row(hostile, 24.0, 123.5, 150.0);
  row.tags = {{hostile, hostile}};
  const std::string path = "obs_test_escape.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::append_run_rows(path, {row}));

  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 1u);
  const util::json::Value v = util::json::parse(lines[0]);
  EXPECT_EQ(v.get("schema").as_int(), 1);
  EXPECT_EQ(v.get("name").as_string(), hostile);
  EXPECT_EQ(v.get("bytes_per_lup").as_number(), 24.0);
  EXPECT_EQ(v.get("mlups").as_number(), 123.5);
  EXPECT_EQ(v.get("predicted_mlups").as_number(), 150.0);
  EXPECT_EQ(v.get("tags").get(hostile).as_string(), hostile);
}

// A run row's phases are the growth since the run started, not the
// process totals: a histogram observed before the snapshot contributes
// only its later samples, one first observed after it counts from 0,
// and one that did not grow is left out.
TEST(ObsRunDb, PhaseSecondsSinceIsThePerRunDelta) {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& earlier = reg.histogram("t.since.earlier.seconds");
  obs::Histogram& idle = reg.histogram("t.since.idle.seconds");
  earlier.observe(2.0);
  idle.observe(1.0);
  const auto before = obs::phase_seconds_snapshot();

  earlier.observe(0.5);
  reg.histogram("t.since.later.seconds").observe(0.25);
  reg.histogram("t.since.later.bytes").observe(64.0);  // not a phase

  std::map<std::string, double> since;
  for (const auto& [name, sec] : obs::phase_seconds_since(before))
    since[name] = sec;
  EXPECT_EQ(since.at("t.since.earlier.seconds"), 0.5);
  EXPECT_EQ(since.at("t.since.later.seconds"), 0.25);
  EXPECT_FALSE(since.contains("t.since.idle.seconds"));
  EXPECT_FALSE(since.contains("t.since.later.bytes"));

  // The cumulative snapshot still carries the earlier samples.
  std::map<std::string, double> total;
  for (const auto& [name, sec] : obs::phase_seconds_snapshot())
    total[name] = sec;
  EXPECT_EQ(total.at("t.since.earlier.seconds"), 2.5);
  EXPECT_EQ(total.at("t.since.idle.seconds"), 1.0);

  // From an empty snapshot the delta is the whole sum.
  std::map<std::string, double> all;
  for (const auto& [name, sec] : obs::phase_seconds_since({}))
    all[name] = sec;
  EXPECT_EQ(all.at("t.since.earlier.seconds"), 2.5);
}

// ------------------------------------------- instrumentation is inert

// The full variant x operator matrix must produce bit-identical answers
// with telemetry on and off: spans and counters observe, never perturb.
TEST(ObsBitIdentity, InstrumentedMatrixMatchesUninstrumented) {
  const int n = 16;
  core::Grid3 initial(n, n, n);
  core::fill_test_pattern(initial);
  const core::Grid3 kappa = core::make_slab_kappa(n, n, n);

  core::SolverConfig cfg;
  cfg.lbm.lid_velocity = {0.05, 0, 0};
  cfg.baseline.threads = 2;
  cfg.baseline.block = {n, 4, 4};
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {6, 5, 4};
  cfg.wavefront.threads = 2;
  const int steps = 2 * cfg.pipeline.levels_per_sweep();

  for (const std::string& opname : core::registered_operators()) {
    for (const std::string& vname : core::registered_variants()) {
      obs::set_enabled(false);
      core::StencilSolver plain =
          core::make_solver(vname, opname, cfg, initial, &kappa);
      plain.advance(steps);

      const obs::Registry& reg = obs::Registry::global();
      obs::Trace& trace = obs::Trace::instance();
      const std::uint64_t lups0 = reg.counter_value("core.lups");
      trace.start("");  // keep spans in memory, write no file
      obs::set_enabled(true);
      core::StencilSolver traced =
          core::make_solver(vname, opname, cfg, initial, &kappa);
      traced.advance(steps);
      obs::set_enabled(false);
      trace.stop();

      EXPECT_EQ(core::max_abs_diff(plain.solution(), traced.solution()), 0.0)
          << vname << "/" << opname;
      if (vname != "reference") {
        EXPECT_GT(reg.counter_value("core.lups"), lups0)
            << vname << "/" << opname;
        EXPECT_GT(trace.recorded(), 0u) << vname << "/" << opname;
      }
    }
  }
  obs::set_enabled(false);
}

}  // namespace
