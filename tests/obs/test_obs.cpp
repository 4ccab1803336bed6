// Observability layer: registry semantics, the SPSC trace ring under
// concurrency, Chrome trace output, and the contract that matters most —
// instrumentation never changes a solver's answer.
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

  obs::Gauge& g = reg.gauge("t.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("t.gauge"), 2.5);

  obs::Histogram& h = reg.histogram("t.hist.seconds");
  h.observe(0.5);
  h.observe(0.25);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.75);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 0.5);

  // Lookup is create-on-first-use and returns stable references.
  EXPECT_EQ(&reg.counter("t.counter"), &c);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
}

TEST(ObsRegistry, BucketOfIsMonotoneAndTotal) {
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(-1.0), 0);
  int prev = 0;
  for (double v = 1e-12; v < 1e6; v *= 4) {
    const int b = obs::Histogram::bucket_of(v);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, obs::Histogram::kBuckets);
    prev = b;
  }
}

TEST(ObsRegistry, PhaseSumsAndScope) {
  obs::Registry reg;
  {
    obs::RegistryScope scope(reg);
    EXPECT_EQ(&obs::Registry::global(), &reg);
    obs::Registry::global().histogram("t.phase.seconds").observe(1.5);
    obs::Registry::global().histogram("t.other.bytes").observe(8.0);
  }
  EXPECT_NE(&obs::Registry::global(), &reg);

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
  EXPECT_GE(h.max(), 0.0);
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

// ----------------------------------------------------------- trace ring

TEST(ObsTraceRing, OverflowDropsInsteadOfBlocking) {
  obs::TraceRing ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  for (std::uint64_t i = 0; i < 20; ++i)
    ring.push(obs::TraceEvent{"e", "t", i, 1, 0});
  EXPECT_EQ(ring.dropped(), 4u);

  std::vector<obs::TraceEvent> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 16u);  // the oldest 16 survive, FIFO order
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].t0_ns, i);
}

TEST(ObsTraceRing, ConcurrentProducerConsumerKeepsOrder) {
  obs::TraceRing ring(64);
  constexpr std::uint64_t kEvents = 20000;

  std::vector<obs::TraceEvent> got;
  got.reserve(kEvents);
  std::thread consumer([&] {
    while (got.size() < kEvents) {
      ring.drain(got);
      std::this_thread::yield();
    }
  });
  // The producer retries full pushes so every event arrives exactly once.
  for (std::uint64_t i = 0; i < kEvents; ++i)
    while (!ring.push(obs::TraceEvent{"e", "t", i, 1, 0}))
      std::this_thread::yield();
  consumer.join();

  ASSERT_EQ(got.size(), kEvents);
  // FIFO and exactly-once despite wrapping the 64-slot ring ~300 times
  // (dropped() counts the producer's failed attempts, not lost events).
  for (std::uint64_t i = 0; i < kEvents; ++i) EXPECT_EQ(got[i].t0_ns, i);
}

TEST(ObsTrace, SessionCollectsSpansFromManyThreads) {
  obs::set_enabled(true);
  obs::CollectSink sink;
  obs::Trace& trace = obs::Trace::instance();
  trace.start_with_sink(&sink);

  constexpr int kThreads = 3, kSpans = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) obs::Span span("test.span", "test");
    });
  for (std::thread& w : workers) w.join();

  trace.stop();
  obs::set_enabled(false);

  EXPECT_TRUE(sink.closed());
  EXPECT_EQ(sink.events().size() + trace.dropped(),
            static_cast<std::size_t>(kThreads) * kSpans);
  // Per-producer FIFO: events of one tid arrive in start order.
  std::map<std::uint32_t, std::uint64_t> last;
  for (const obs::TraceEvent& e : sink.events()) {
    ASSERT_STREQ(e.name, "test.span");
    const auto it = last.find(e.tid);
    if (it != last.end()) {
      EXPECT_GE(e.t0_ns, it->second);
    }
    last[e.tid] = e.t0_ns;
  }
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

      obs::Registry local;
      obs::CollectSink sink;
      std::uint64_t lups = 0;
      {
        obs::RegistryScope scope(local);
        obs::Trace::instance().start_with_sink(&sink);
        obs::set_enabled(true);
        core::StencilSolver traced =
            core::make_solver(vname, opname, cfg, initial, &kappa);
        traced.advance(steps);
        obs::set_enabled(false);
        obs::Trace::instance().stop();

        EXPECT_EQ(core::max_abs_diff(plain.solution(), traced.solution()),
                  0.0)
            << vname << "/" << opname;
        lups = local.counter_value("core.lups");
      }
      if (vname != "reference") {
        EXPECT_GT(lups, 0u) << vname << "/" << opname;
        EXPECT_GT(sink.events().size() + obs::Trace::instance().dropped(),
                  0u)
            << vname << "/" << opname;
      }
    }
  }
  obs::set_enabled(false);
}

}  // namespace
