// Thread synchronization for the pipelined scheme.
//
// Two modes (Sec. 1.3):
//  * Barrier — a global barrier across all pipeline threads after each
//    block update (the simple, expensive variant).
//  * Relaxed — each thread t_i maintains a progress counter c_i on its own
//    cache line; before starting its next block it spins until
//        c_{i-1} - c_i >= d_l   (averts data races)
//        c_i - c_{i+1} <= d_u   (bounds the pipeline spread)
//    The team delay d_t is added to d_l on a team's front thread and to
//    d_u on its rear thread.  The overall front thread ignores the first
//    condition, the overall rear thread the second.
//
// The paper uses volatile counters updated through the cache-coherence
// protocol; the C++ translation is std::atomic with release stores by the
// owner and acquire loads by the neighbours, which additionally gives the
// happens-before edges that make the grid writes visible.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/aligned_buffer.hpp"

namespace tb::core {

/// CPU-friendly busy-wait pause.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

/// Spin-then-yield backoff.  The yield escalation matters on machines with
/// fewer cores than pipeline threads (oversubscription): a pure spin would
/// starve the thread whose counter we are waiting for.
class Backoff {
 public:
  void pause() {
    ++spins_;
    if (spins_ < 64) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
  void reset() { spins_ = 0; }

 private:
  std::uint32_t spins_ = 0;
};

/// Sense-reversing spin barrier for workers that stay resident across
/// many sweeps (BaselineSolver runs its whole step loop inside ONE
/// thread-pool dispatch; a condition-variable round trip per sweep costs
/// more than a small sweep itself).  The release store of the generation
/// bump publishes every grid write of the finishing sweep; the acquire
/// loads of the waiters pair with it.  Spinning goes through Backoff, so
/// oversubscribed hosts degrade to yields instead of starving the last
/// arriver.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return;
    }
    Backoff backoff;
    while (generation_.load(std::memory_order_acquire) == gen)
      backoff.pause();
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  alignas(util::kCacheLineBytes) std::atomic<std::uint64_t> generation_{0};
};

/// One progress counter per pipeline thread, each on its own cache line to
/// avoid false sharing (the paper places each c_i "in a cache line of its
/// own").
class ProgressCounters {
 public:
  explicit ProgressCounters(int threads)
      : counters_(static_cast<std::size_t>(threads)) {
    reset();
  }

  void reset() {
    for (auto& c : counters_) c.v.store(0, std::memory_order_relaxed);
  }

  /// Completed-block count of thread `p` (acquire: pairs with publish()).
  [[nodiscard]] long long load(int p) const {
    return counters_[static_cast<std::size_t>(p)].v.load(
        std::memory_order_acquire);
  }

  /// Publishes that thread `p` has now completed `count` blocks.  The
  /// release store makes all grid writes of the finished block visible to
  /// any thread that observes the new counter value.
  void publish(int p, long long count) {
    counters_[static_cast<std::size_t>(p)].v.store(
        count, std::memory_order_release);
  }

  [[nodiscard]] int size() const { return static_cast<int>(counters_.size()); }

 private:
  struct alignas(util::kCacheLineBytes) Padded {
    std::atomic<long long> v{0};
  };
  std::vector<Padded> counters_;
};

/// Effective per-thread distance bounds including the team delay d_t.
struct DistanceBounds {
  long long dl = 1;  ///< minimum lead of the predecessor (condition 1)
  long long du = 1;  ///< maximum lead over the successor (condition 2)
  bool check_lower = true;   ///< false for the overall front thread
  bool check_upper = true;   ///< false for the overall rear thread
};

/// Computes the per-thread bounds for a pipeline of `teams` teams of
/// `team_size` threads with base distances dl/du and team delay dt.
[[nodiscard]] inline std::vector<DistanceBounds> make_distance_bounds(
    int teams, int team_size, int dl, int du, int dt) {
  const int total = teams * team_size;
  std::vector<DistanceBounds> out(static_cast<std::size_t>(total));
  for (int p = 0; p < total; ++p) {
    DistanceBounds b;
    b.dl = dl;
    b.du = du;
    const bool team_front = (p % team_size == 0);
    const bool team_rear = (p % team_size == team_size - 1);
    if (team_front) b.dl += dt;  // delay against the previous team's rear
    if (team_rear) b.du += dt;   // allow the matching extra lead
    b.check_lower = (p != 0);
    b.check_upper = (p != total - 1);
    out[static_cast<std::size_t>(p)] = b;
  }
  return out;
}

/// Spatial offsets of each pipeline stage in barrier mode, in barrier
/// steps: stage p trails stage p-1 by one block, plus the team delay d_t
/// ahead of every team's front thread.
[[nodiscard]] inline std::vector<long long> make_barrier_offsets(
    int teams, int team_size, int dt) {
  const int total = teams * team_size;
  std::vector<long long> off(static_cast<std::size_t>(total), 0);
  for (int p = 1; p < total; ++p) {
    const bool team_front = (p % team_size == 0);
    off[static_cast<std::size_t>(p)] =
        off[static_cast<std::size_t>(p - 1)] + 1 + (team_front ? dt : 0);
  }
  return off;
}

/// Eq. (3)'s first condition for a thread that has completed `done` of
/// `total` blocks while its predecessor has completed `prev`: c_{i-1} -
/// c_i >= d_l.  A predecessor that has already finished the whole sweep
/// (prev == total) clears it regardless of distance: all its writes are
/// complete, and with d_l + d_t > 1 the strict distance could never be
/// met near the end of the block sequence (the counter saturates at
/// `total`).  The overall front thread does not check it.
[[nodiscard]] inline bool lower_clear(const DistanceBounds& b, long long prev,
                                      long long done, long long total) {
  return prev - done >= b.dl || prev >= total;
}

/// Eq. (3)'s second condition against the successor's count `next`:
/// c_i - c_{i+1} <= d_u.  The overall rear thread does not check it.
[[nodiscard]] inline bool upper_clear(const DistanceBounds& b, long long done,
                                      long long next) {
  return done - next <= b.du;
}

/// Blocks until thread `p`, having completed `done` of `total` blocks, may
/// start its next block under the relaxed-synchronization conditions
/// (Eq. (3)).  sim::simulate_pipeline decides clearance with the same
/// two predicates.
inline void wait_for_clearance(const ProgressCounters& counters,
                               const std::vector<DistanceBounds>& bounds,
                               int p, long long done, long long total) {
  const DistanceBounds& b = bounds[static_cast<std::size_t>(p)];
  Backoff backoff;
  if (b.check_lower)
    while (!lower_clear(b, counters.load(p - 1), done, total))
      backoff.pause();
  backoff.reset();
  // The successor bound: p + 1 < size() always holds when check_upper is
  // set (the overall rear thread has check_upper == false); spelling it out
  // keeps GCC's inliner from flagging a phantom out-of-bounds atomic load.
  if (b.check_upper && p + 1 < counters.size())
    while (!upper_clear(b, done, counters.load(p + 1))) backoff.pause();
}

}  // namespace tb::core
