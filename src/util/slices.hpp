// Static fork/join over contiguous index slices.
//
// Set-up passes — first-touch page placement, copying an initial grid
// into a solver's storage, building coefficient fields — split into
// independent contiguous pieces of one index range.  They run once per
// solve (or per advance() for the compressed facade copies), outside any
// scheme's persistent pool, so a plain spawn/join is all they need.  The
// split is the balanced one BaselineSolver uses for its tiles, so under
// first-touch placement the thread that writes a page first is the one
// that later updates it.
#pragma once

#include <algorithm>
#include <thread>
#include <vector>

namespace tb::util {

/// Offset of slice t in the balanced contiguous split of n items into
/// `parts` slices: n*t/parts.  Slice t is [slice_begin(n, t, parts),
/// slice_begin(n, t + 1, parts)).
[[nodiscard]] constexpr unsigned long long slice_begin(
    unsigned long long n, unsigned long long t,
    unsigned long long parts) noexcept {
  return n * t / parts;
}

/// Runs fn(t, s0, s1) for every t in [0, threads), where [s0, s1) is
/// slice t of the balanced contiguous split of [begin, end):
/// s0 = begin + slice_begin(n, t, threads) with n = end - begin.  Slice
/// 0 runs on the calling thread, the others on threads spawned for the
/// call; returns once all are done.  threads < 1 counts as 1.  Every t
/// runs even when its slice is empty (round-robin page placement keys
/// on t alone).  fn must not throw.
template <class I, class Fn>
void for_each_slice(int threads, I begin, I end, Fn&& fn) {
  const unsigned long long parts =
      static_cast<unsigned long long>(std::max(1, threads));
  const unsigned long long n =
      end > begin ? static_cast<unsigned long long>(end - begin) : 0;
  const auto bound = [&](unsigned long long t) {
    return static_cast<I>(begin + static_cast<I>(slice_begin(n, t, parts)));
  };
  const auto slice = [&](unsigned long long t) {
    fn(static_cast<int>(t), bound(t), bound(t + 1));
  };
  // Declared after everything the slices use: the jthreads join when
  // this vector is destroyed, on the way out and on any exception path.
  std::vector<std::jthread> workers;
  workers.reserve(parts - 1);
  for (unsigned long long t = 1; t < parts; ++t)
    workers.emplace_back(slice, t);
  slice(0);
}

}  // namespace tb::util
