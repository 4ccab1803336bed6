#include "perfmodel/stream.hpp"

#include <algorithm>
#include <cstdint>

#include "core/kernels.hpp"
#include "util/aligned_buffer.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tb::perfmodel {

namespace {

void copy_range(double* __restrict__ dst, const double* __restrict__ src,
                std::size_t n, bool nontemporal) {
#if defined(__SSE2__)
  if (nontemporal) {
    std::size_t i = 0;
    for (; i < n && (reinterpret_cast<std::uintptr_t>(dst + i) & 0xF) != 0; ++i)
      dst[i] = src[i];
    for (; i + 2 <= n; i += 2)
      _mm_stream_pd(dst + i, _mm_loadu_pd(src + i));
    for (; i < n; ++i) dst[i] = src[i];
    _mm_sfence();
    return;
  }
#endif
  (void)nontemporal;
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}

}  // namespace

BandwidthResult stream_copy(std::size_t elems, int threads, bool nontemporal,
                            int repetitions) {
  threads = std::max(1, threads);
  util::AlignedBuffer<double> a(elems), b(elems);
  util::ThreadPool pool(threads);

  // First-touch initialization with the same partition as the copy loop.
  pool.run([&](int w) {
    const std::size_t lo = elems * static_cast<std::size_t>(w) / threads;
    const std::size_t hi = elems * static_cast<std::size_t>(w + 1) / threads;
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = static_cast<double>(i);
      b[i] = 0.0;
    }
  });

  const bool nt = nontemporal && tb::core::nontemporal_supported();
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    util::Timer t;
    pool.run([&](int w) {
      const std::size_t lo = elems * static_cast<std::size_t>(w) / threads;
      const std::size_t hi =
          elems * static_cast<std::size_t>(w + 1) / threads;
      copy_range(b.data() + lo, a.data() + lo, hi - lo, nt);
    });
    best = std::min(best, t.elapsed());
  }

  BandwidthResult res;
  // 8B load + 8B store, plus 8B write-allocate unless streaming stores.
  const double bytes_per_elem = nt ? 16.0 : 24.0;
  res.bytes = static_cast<std::size_t>(bytes_per_elem *
                                       static_cast<double>(elems));
  res.seconds = best;
  res.bytes_per_second = best > 0 ? static_cast<double>(res.bytes) / best
                                  : 0.0;
  return res;
}

}  // namespace tb::perfmodel
