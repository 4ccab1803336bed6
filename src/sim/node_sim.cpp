#include "sim/node_sim.hpp"

#include <algorithm>
#include <deque>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/blocks.hpp"
#include "core/sync.hpp"

namespace tb::sim {

namespace {

/// One fluid transfer: `amount` remaining units on `resource`, moving at
/// most `cap` units/s.  resource = kUncapacitated means the task is only
/// limited by its own cap (in-core work, pure delays).
struct Task {
  int resource = -1;
  double amount = 0.0;
  double cap = 0.0;
};

constexpr int kUncapacitated = -1;

struct ThreadSim {
  int p = 0;
  int team = 0;
  int socket = 0;
  long long counter = 0;  ///< completed blocks (relaxed) or steps (barrier)
  std::deque<Task> tasks;
  bool waiting = false;
  bool done = false;
  double stall_start = 0.0;
  double stall_total = 0.0;
};

/// Max-min fair rate allocation with per-task caps on shared resources.
class FluidEngine {
 public:
  explicit FluidEngine(std::vector<double> capacities)
      : capacities_(std::move(capacities)) {}

  /// Advances all runnable threads until the next task completion; returns
  /// false when no task is active.
  bool step(std::vector<ThreadSim>& threads, double& now) {
    struct Active {
      ThreadSim* t;
      double rate = 0.0;
    };
    std::vector<Active> active;
    for (auto& t : threads)
      if (!t.done && !t.waiting && !t.tasks.empty()) active.push_back({&t});
    if (active.empty()) return false;

    // Per-resource water filling.
    for (std::size_t r = 0; r < capacities_.size(); ++r) {
      std::vector<Active*> users;
      for (auto& a : active)
        if (a.t->tasks.front().resource == static_cast<int>(r))
          users.push_back(&a);
      if (users.empty()) continue;
      std::sort(users.begin(), users.end(), [](Active* x, Active* y) {
        return x->t->tasks.front().cap < y->t->tasks.front().cap;
      });
      double remaining = capacities_[r];
      std::size_t n = users.size();
      for (Active* u : users) {
        const double alloc =
            std::min(u->t->tasks.front().cap,
                     remaining / static_cast<double>(n));
        u->rate = alloc;
        remaining -= alloc;
        --n;
      }
    }
    for (auto& a : active)
      if (a.t->tasks.front().resource == kUncapacitated)
        a.rate = a.t->tasks.front().cap;

    // Time to the earliest completion.
    double dt = 1e300;
    for (const auto& a : active)
      if (a.rate > 0)
        dt = std::min(dt, a.t->tasks.front().amount / a.rate);
    if (dt >= 1e300)
      throw std::logic_error("node_sim: no task can make progress");
    now += dt;
    for (auto& a : active) {
      Task& task = a.t->tasks.front();
      task.amount -= a.rate * dt;
      if (task.amount <= 1e-9 * std::max(1.0, a.rate * dt))
        a.t->tasks.pop_front();
    }
    return true;
  }

 private:
  std::vector<double> capacities_;
};

/// Builds the full simulator state for the pipelined schedule.
class PipelineSim {
 public:
  PipelineSim(const SimMachine& machine, const core::PipelineConfig& cfg,
              std::array<int, 3> grid, topo::PagePlacement placement)
      : m_(machine),
        cfg_(cfg),
        placement_(placement),
        plan_(cfg.block, core::interior_clips(grid[0], grid[1], grid[2],
                                              cfg.levels_per_sweep())),
        bounds_(core::make_distance_bounds(cfg.teams, cfg.team_size, cfg.dl,
                                           cfg.du, cfg.dt)),
        rng_(machine.seed),
        jitter_(0.0, machine.jitter_sigma > 0 ? machine.jitter_sigma
                                              : 1e-12) {
    cfg.validate();
    m_.spec.validate();
    if (cfg.teams > m_.spec.sockets)
      throw std::invalid_argument("PipelineSim: more teams than sockets");
    grid_ = grid;
    barrier_mode_ = cfg.sync == core::SyncMode::kBarrier;
    // Resources: mem[socket], then cache[socket].
    std::vector<double> caps;
    for (int s = 0; s < m_.spec.sockets; ++s)
      caps.push_back(m_.spec.mem_bw_socket);
    for (int s = 0; s < m_.spec.sockets; ++s)
      caps.push_back(m_.spec.cache_bw);
    engine_ = std::make_unique<FluidEngine>(std::move(caps));

    const int P = cfg.total_threads();
    threads_.resize(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      threads_[static_cast<std::size_t>(p)].p = p;
      threads_[static_cast<std::size_t>(p)].team = p / cfg.team_size;
      threads_[static_cast<std::size_t>(p)].socket = p / cfg.team_size;
    }
    if (barrier_mode_)
      offsets_ = core::make_barrier_offsets(cfg.teams, cfg.team_size, cfg.dt);
  }

  SimResult run(int sweeps) {
    SimResult out;
    double now = 0.0;
    for (int s = 0; s < sweeps; ++s) run_sweep(now, out);
    out.seconds = now;
    const double interior = 1.0 * (grid_[0] - 2) * (grid_[1] - 2) *
                            (grid_[2] - 2);
    const double updates =
        interior * cfg_.levels_per_sweep() * static_cast<double>(sweeps);
    out.mlups = now > 0 ? updates / now / 1e6 : 0.0;
    for (const auto& t : threads_) out.stall_seconds += t.stall_total;
    return out;
  }

 private:
  [[nodiscard]] long long total_steps() const {
    return barrier_mode_ ? plan_.num_blocks() + offsets_.back()
                         : plan_.num_blocks();
  }

  /// ccNUMA home socket of a block under the placement policy.
  [[nodiscard]] int home_socket(long long block) const {
    if (m_.spec.sockets == 1) return 0;
    switch (placement_) {
      case topo::PagePlacement::kRoundRobin:
        return static_cast<int>(block % m_.spec.sockets);
      case topo::PagePlacement::kFirstTouch:
        return static_cast<int>(block * m_.spec.sockets /
                                plan_.num_blocks());
      case topo::PagePlacement::kSerial:
        return 0;
    }
    return 0;
  }

  [[nodiscard]] double jitter() {
    if (m_.spec.clock_hz <= 0 || m_.jitter_sigma <= 0) return 1.0;
    // Normalize so the mean multiplier is 1.
    const double raw = jitter_(rng_);
    return raw / std::exp(0.5 * m_.jitter_sigma * m_.jitter_sigma);
  }

  /// Task list for thread `t` processing block counter `c` (relaxed) or
  /// barrier step `c`.
  void build_tasks(ThreadSim& t, long long c) {
    long long block = c;
    if (barrier_mode_) {
      block = c - offsets_[static_cast<std::size_t>(t.p)];
      if (block < 0 || block >= plan_.num_blocks()) {
        // No work this step; only the barrier cost applies.
        push_delay(t, m_.spec.barrier_seconds(cfg_.total_threads()));
        return;
      }
    }
    const KernelTraits& kt = m_.kernel;
    const bool compressed = cfg_.scheme == core::GridScheme::kCompressed;
    // The compressed grid halves both the in-stream (no second grid to
    // write-allocate) and the resident footprint.
    const double bytes_front = compressed ? kt.front_bytes / 2.0
                                          : kt.front_bytes;
    const double bytes_evict = kt.evict_bytes;
    const double grids = compressed ? 1.0 : 2.0;
    const double footprint = static_cast<double>(cfg_.block.cells()) * 8.0 *
                             kt.fields * grids;
    const int home = home_socket(block);
    const auto b = plan_.decode(block);
    const int P = cfg_.total_threads();

    // Every substep becomes exactly one fluid task: transfers overlap with
    // computation (hardware prefetching — the paper notes the front thread
    // "continuously operates on new blocks" with automatic overlap), so
    // the substep rate is min(transfer cap, in-core rate), expressed in
    // the task's byte units.
    for (int u = 0; u < cfg_.steps_per_thread; ++u) {
      const int level = t.p * cfg_.steps_per_thread + u + 1;
      const core::Box w = plan_.window(b, level);
      const double cells = static_cast<double>(w.cells());
      if (cells <= 0) continue;

      const int row_len = std::max(1, w.hi[0] - w.lo[0]);
      const double cycles =
          ((u == 0 ? kt.cycles_first_touch : kt.cycles_cached) +
           kt.row_start_cycles / row_len) *
          jitter();
      const double cells_per_s = m_.spec.clock_hz / cycles;

      Task task;
      if (t.p == 0 && u == 0) {
        // Front thread: block streams in from memory.
        task.resource = home;
        task.amount = bytes_front * cells;
        task.cap = std::min(m_.spec.mem_bw_single *
                                (home == t.socket ? 1.0
                                                  : m_.remote_mem_factor),
                            bytes_front * cells_per_s);
      } else if (u == 0 && t.p % cfg_.team_size == 0) {
        // Team handover: fetch from the previous team's cache via QPI.
        task.resource = m_.spec.sockets + (t.team - 1);
        task.amount = bytes_front * cells;
        task.cap = std::min(m_.qpi_stream_bw, bytes_front * cells_per_s);
      } else if (u == 0 && !barrier_mode_ && is_evicted(t, c, footprint)) {
        // The producing thread ran too far ahead: the block fell out of
        // the shared cache and must be re-read from memory, after having
        // been written back.  This is what punishes large d_u.
        task.resource = home;
        task.amount = (bytes_front + bytes_evict) * cells;
        task.cap = std::min(m_.spec.mem_bw_single *
                                (home == t.socket ? 1.0
                                                  : m_.remote_mem_factor),
                            (bytes_front + bytes_evict) * cells_per_s);
      } else if (t.p == P - 1 && u == cfg_.steps_per_thread - 1) {
        // Rear thread's last update: the block is evicted to memory.
        task.resource = home;
        task.amount = bytes_evict * cells;
        task.cap = std::min(m_.spec.mem_bw_single *
                                (home == t.socket ? 1.0
                                                  : m_.remote_mem_factor),
                            bytes_evict * cells_per_s);
      } else {
        // In-cache update: streamed through the shared cache, bounded by
        // the in-core execution rate.
        task.resource = m_.spec.sockets + t.socket;
        task.amount = kt.cache_bytes * cells;
        task.cap = kt.cache_bytes * cells_per_s;
      }
      t.tasks.push_back(task);
    }
    if (barrier_mode_)
      push_delay(t, m_.spec.barrier_seconds(cfg_.total_threads()));
    if (t.tasks.empty()) push_delay(t, 1e-12);  // fully clipped window
  }

  /// True when the block handed to thread `t` has already been pushed out
  /// of the team's shared cache by the front thread's progress.
  [[nodiscard]] bool is_evicted(const ThreadSim& t, long long c,
                                double footprint) const {
    const int front_p = t.team * cfg_.team_size;
    const long long lead =
        threads_[static_cast<std::size_t>(front_p)].counter - c;
    return static_cast<double>(lead) * footprint >
           static_cast<double>(m_.spec.shared_cache_bytes);
  }

  void push_delay(ThreadSim& t, double seconds) {
    Task task;
    task.resource = kUncapacitated;
    task.amount = seconds;
    task.cap = 1.0;
    t.tasks.push_back(task);
  }

  /// May thread `t` (having completed `t.counter` units) start the next?
  [[nodiscard]] bool clearance(const ThreadSim& t) const {
    if (barrier_mode_) {
      // Global barrier: nobody may run ahead of the slowest thread.
      for (const auto& other : threads_)
        if (other.counter < t.counter) return false;
      return true;
    }
    // Eq. (3) through the engine's own predicates (core/sync.hpp).
    const auto& b = bounds_[static_cast<std::size_t>(t.p)];
    const auto count = [&](int p) {
      return threads_[static_cast<std::size_t>(p)].counter;
    };
    return (!b.check_lower ||
            core::lower_clear(b, count(t.p - 1), t.counter, total_steps())) &&
           (!b.check_upper || core::upper_clear(b, t.counter, count(t.p + 1)));
  }

  void try_start(ThreadSim& t, double now) {
    if (t.done || !t.tasks.empty()) return;
    if (t.counter >= total_steps()) {
      t.done = true;
      t.waiting = false;
      return;
    }
    if (clearance(t)) {
      if (t.waiting) {
        t.stall_total += now - t.stall_start;
        t.waiting = false;
        // Counter propagation latency of the relaxed scheme.
        if (!barrier_mode_)
          push_delay(t, m_.sync_latency_cycles / m_.spec.clock_hz);
      }
      build_tasks(t, t.counter);
    } else if (!t.waiting) {
      t.waiting = true;
      t.stall_start = now;
    }
  }

  void run_sweep(double& now, SimResult& out) {
    for (auto& t : threads_) {
      t.counter = 0;
      t.done = false;
      t.waiting = false;
      t.tasks.clear();
    }
    for (auto& t : threads_) try_start(t, now);

    while (true) {
      // Account traffic as tasks are created: simpler to accumulate on
      // completion — walk threads whose queue just drained.
      if (!engine_->step(threads_, now)) {
        bool all_done = true;
        for (const auto& t : threads_) all_done &= t.done;
        if (all_done) break;
        throw std::logic_error("node_sim: pipeline deadlock");
      }
      for (auto& t : threads_) {
        if (!t.done && !t.waiting && t.tasks.empty()) {
          ++t.counter;
          // Wake this thread and its neighbours.
          try_start(t, now);
          if (t.p > 0) try_start(threads_[static_cast<std::size_t>(t.p - 1)], now);
          if (t.p + 1 < static_cast<int>(threads_.size()))
            try_start(threads_[static_cast<std::size_t>(t.p + 1)], now);
          if (barrier_mode_)
            for (auto& other : threads_) try_start(other, now);
        }
      }
    }

    // Traffic accounting (analytic, from the schedule geometry).
    const bool compressed = cfg_.scheme == core::GridScheme::kCompressed;
    const KernelTraits& kt = m_.kernel;
    const double interior =
        1.0 * (grid_[0] - 2) * (grid_[1] - 2) * (grid_[2] - 2);
    out.mem_bytes += interior * ((compressed ? kt.front_bytes / 2.0
                                             : kt.front_bytes) +
                                 kt.evict_bytes);
    out.cache_bytes += interior * kt.cache_bytes * cfg_.levels_per_sweep();
  }

  SimMachine m_;
  core::PipelineConfig cfg_;
  topo::PagePlacement placement_;
  core::BlockPlan plan_;
  std::vector<core::DistanceBounds> bounds_;
  std::array<int, 3> grid_{};
  bool barrier_mode_ = false;
  std::vector<long long> offsets_;
  std::vector<ThreadSim> threads_;
  std::unique_ptr<FluidEngine> engine_;
  std::mt19937_64 rng_;
  std::lognormal_distribution<double> jitter_;
};

}  // namespace

SimResult simulate_pipeline(const SimMachine& machine,
                            const core::PipelineConfig& cfg,
                            std::array<int, 3> grid, int sweeps,
                            topo::PagePlacement placement) {
  PipelineSim sim(machine, cfg, grid, placement);
  return sim.run(sweeps);
}

SimResult simulate_standard(const SimMachine& machine,
                            std::array<int, 3> grid, int threads,
                            int sweeps) {
  if (threads < 1)
    throw std::invalid_argument("simulate_standard: threads < 1");
  const topo::MachineSpec& spec = machine.spec;
  // Threads fill sockets in order; thread w lives on socket
  // w / ceil(threads/sockets) with first-touch (local) pages.
  const int per_socket =
      (threads + spec.sockets - 1) / spec.sockets;

  std::vector<double> caps;
  for (int s = 0; s < spec.sockets; ++s) caps.push_back(spec.mem_bw_socket);
  for (int s = 0; s < spec.sockets; ++s) caps.push_back(spec.cache_bw);
  FluidEngine engine(std::move(caps));

  const double interior =
      1.0 * (grid[0] - 2) * (grid[1] - 2) * (grid[2] - 2);
  const double cells_per_thread = interior / threads;

  std::vector<ThreadSim> ts(static_cast<std::size_t>(threads));
  std::mt19937_64 rng(machine.seed);
  std::lognormal_distribution<double> jitter(
      0.0, machine.jitter_sigma > 0 ? machine.jitter_sigma : 1e-12);

  double now = 0.0;
  SimResult out;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int w = 0; w < threads; ++w) {
      ThreadSim& t = ts[static_cast<std::size_t>(w)];
      t.p = w;
      t.socket = std::min(w / per_socket, spec.sockets - 1);
      t.tasks.clear();
      t.done = false;
      t.waiting = false;
      // 16 B/cell of memory traffic (NT stores avoid the RFO), capped by
      // the single-stream bandwidth and the in-core rate — computation
      // overlaps the streaming, as the memory-bound assumption of Eq. (2)
      // requires.
      // Per-thread noise averages out over the thousands of tiles of one
      // sweep, so the standard solver is modeled jitter-free.
      const double f = 1.0;
      const double nt_bytes =
          machine.kernel.front_bytes + machine.kernel.evict_bytes - 8.0 *
          machine.kernel.fields;  // NT stores avoid the write-allocate
      Task mem;
      mem.resource = t.socket;
      mem.amount = nt_bytes * cells_per_thread;
      mem.cap = std::min(spec.mem_bw_single,
                         nt_bytes * spec.clock_hz /
                             (machine.kernel.cycles_first_touch * f));
      t.tasks.push_back(mem);
    }
    while (engine.step(ts, now)) {
    }
    out.mem_bytes += interior * (machine.kernel.front_bytes +
                                 machine.kernel.evict_bytes -
                                 8.0 * machine.kernel.fields);
  }
  out.seconds = now;
  out.mlups = now > 0 ? interior * sweeps / now / 1e6 : 0.0;
  return out;
}

}  // namespace tb::sim
