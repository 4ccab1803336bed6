#include "core/engine.hpp"

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tb::core {

PipelineEngine::PipelineEngine(const PipelineConfig& cfg, BlockPlan plan)
    : cfg_(cfg),
      plan_(std::move(plan)),
      pool_(cfg.total_threads()),
      counters_(cfg.total_threads()),
      bounds_(make_distance_bounds(cfg.teams, cfg.team_size, cfg.dl, cfg.du,
                                   cfg.dt)),
      barrier_offsets_(
          make_barrier_offsets(cfg.teams, cfg.team_size, cfg.dt)) {
  cfg_.validate();
  if (plan_.levels() != cfg_.levels_per_sweep())
    throw std::invalid_argument(
        "PipelineEngine: plan levels != teams*team_size*steps_per_thread");
}

void PipelineEngine::process_block(int p, long long c, bool forward,
                                   const ProcessFn& process) const {
  const long long nb = plan_.num_blocks();
  const long long block = forward ? c : nb - 1 - c;
  const std::array<int, 3> b = plan_.decode(block);
  const int first_level = p * cfg_.steps_per_thread + 1;
  for (int u = 0; u < cfg_.steps_per_thread; ++u) {
    const int level = first_level + u;
    const Box w = plan_.window(b, level, forward);
    if (!w.empty()) process(p, level, w);
  }
}

void PipelineEngine::sweep_relaxed(bool forward, const ProcessFn& process) {
  counters_.reset();
  const long long nb = plan_.num_blocks();
  // Telemetry: per thread per sweep, one aggregate clearance-wait
  // sample + two trace spans (the sweep, and its wait total rendered as
  // a nested tail span).  Hoisted so the per-block path adds only a
  // predictable branch when disabled.
  const bool tel = obs::enabled();
  obs::Histogram* wait_h =
      tel ? &obs::Registry::global().histogram("core.pipeline_wait.seconds")
          : nullptr;
  obs::Trace* tr = tel && obs::Trace::instance().running()
                       ? &obs::Trace::instance()
                       : nullptr;
  pool_.run([&](int p) {
    const std::uint64_t s0 = tel ? obs::now_ns() : 0;
    std::uint64_t wait_ns = 0;
    for (long long c = 0; c < nb; ++c) {
      if (tel) {
        const std::uint64_t w0 = obs::now_ns();
        wait_for_clearance(counters_, bounds_, p, c, nb);
        wait_ns += obs::now_ns() - w0;
      } else {
        wait_for_clearance(counters_, bounds_, p, c, nb);
      }
      process_block(p, c, forward, process);
      counters_.publish(p, c + 1);
    }
    if (tel) {
      const std::uint64_t s1 = obs::now_ns();
      wait_h->observe(static_cast<double>(wait_ns) * 1e-9);
      if (tr != nullptr) {
        tr->record("pipeline.sweep", "core", s0, s1 - s0);
        tr->record("pipeline.wait", "core", s1 - wait_ns, wait_ns);
      }
    }
  });
}

void PipelineEngine::sweep_barrier(bool forward, const ProcessFn& process) {
  const long long nb = plan_.num_blocks();
  const long long max_offset = barrier_offsets_.back();
  const long long steps = nb + max_offset;
  std::barrier barrier(cfg_.total_threads());
  const bool tel = obs::enabled();
  obs::Histogram* wait_h =
      tel ? &obs::Registry::global().histogram("core.barrier_wait.seconds")
          : nullptr;
  obs::Trace* tr = tel && obs::Trace::instance().running()
                       ? &obs::Trace::instance()
                       : nullptr;
  pool_.run([&](int p) {
    const long long off = barrier_offsets_[static_cast<std::size_t>(p)];
    const std::uint64_t s0 = tel ? obs::now_ns() : 0;
    std::uint64_t wait_ns = 0;
    for (long long k = 0; k < steps; ++k) {
      const long long c = k - off;
      if (c >= 0 && c < nb) process_block(p, c, forward, process);
      if (tel) {
        const std::uint64_t w0 = obs::now_ns();
        barrier.arrive_and_wait();
        wait_ns += obs::now_ns() - w0;
      } else {
        barrier.arrive_and_wait();
      }
    }
    if (tel) {
      const std::uint64_t s1 = obs::now_ns();
      wait_h->observe(static_cast<double>(wait_ns) * 1e-9);
      if (tr != nullptr) {
        tr->record("pipeline.sweep", "core", s0, s1 - s0);
        tr->record("pipeline.wait", "core", s1 - wait_ns, wait_ns);
      }
    }
  });
}

void PipelineEngine::run_sweep(bool forward, const ProcessFn& process) {
  if (cfg_.sync == SyncMode::kRelaxed) {
    sweep_relaxed(forward, process);
  } else {
    sweep_barrier(forward, process);
  }
}

}  // namespace tb::core
