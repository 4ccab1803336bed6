// Aligned, page-touchable memory buffer for stencil grids.
//
// Stencil performance on x86 depends on SIMD-aligned rows and on which NUMA
// domain first touches each page.  AlignedBuffer separates *allocation* from
// *initialization* so that placement policies (first-touch, round-robin) can
// decide who touches what.
//
// A "page" is the page the kernel backs the buffer with.  Buffers of at
// least kHugePageAdviceBytes ask for transparent huge pages on their
// 2 MiB-aligned interior (madvise(MADV_HUGEPAGE); on hosts whose THP mode
// is "madvise" nothing else gets huge pages).  A memory-tier grid then
// first-touches in 2 MiB faults instead of 4 KiB ones, which makes its
// set-up several times cheaper.  The threshold is glibc's largest mmap
// threshold on 64-bit: a request that size is always mapped fresh and
// unmapped on free, so the advice never lands on recycled heap memory
// and cache-tier grids keep 4 KiB pages (advising from 2 MiB up raised
// the small-grid benchmark's peak RSS and bought it no throughput).
// backing_page_bytes() states the rule; topo::touch_pages splits its
// work at those page boundaries so each page has one first writer.
//
// The buffers keep the allocator's natural offset inside the page.
// Aligning both parities of a grid pair to 2 MiB puts a[i] and b[i] at
// the same offset in their pages, so every update's load and store
// streams contend for the same cache sets: pipelined Jacobi at the
// memory tier fell from ~2650 to ~1690 MLUP/s (-36 %) on a 4-vCPU x86-64
// host.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>

#include "util/simd.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace tb::util {

// ---- allocation accounting ---------------------------------------------
//
// Every grid and lattice in the repository is backed by an AlignedBuffer,
// which makes this the single chokepoint where "did that solve allocate?"
// is answerable.  The counters are process-global relaxed atomics: cheap
// enough to stay on unconditionally, precise enough for the session
// layer's reuse guarantee ("the second pass over a pooled solver performs
// zero grid allocations") to be a testable high-water-mark delta instead
// of a comment.

namespace detail {
inline std::atomic<std::uint64_t> alloc_count{0};   ///< lifetime allocations
inline std::atomic<std::uint64_t> alloc_bytes{0};   ///< bytes currently live
inline std::atomic<std::uint64_t> alloc_peak{0};    ///< high-water of bytes
}  // namespace detail

/// Number of AlignedBuffer allocations performed since process start.
/// Monotone: the delta across a code region counts its allocations.
[[nodiscard]] inline std::uint64_t buffer_alloc_count() {
  return detail::alloc_count.load(std::memory_order_relaxed);
}

/// Bytes currently held by live AlignedBuffers.
[[nodiscard]] inline std::uint64_t buffer_bytes_in_use() {
  return detail::alloc_bytes.load(std::memory_order_relaxed);
}

/// High-water mark of buffer_bytes_in_use() since process start.
[[nodiscard]] inline std::uint64_t buffer_bytes_high_water() {
  return detail::alloc_peak.load(std::memory_order_relaxed);
}

/// Default alignment for grid storage: one cache line, which also satisfies
/// every SIMD extension up to AVX-512.
inline constexpr std::size_t kCacheLineBytes = 64;

// Load-bearing version of that promise: a Grid3 row pitch padded to
// kCacheLineBytes must start every row on a full native-vector boundary,
// or the aligned loads / non-temporal stores of the vec row kernels
// fault.  If a future ISA widens past the cache line this trips at
// compile time instead of at the first _mm*_stream_pd.
static_assert(kCacheLineBytes %
                      (static_cast<std::size_t>(simd::kNativeWidth) *
                       sizeof(double)) ==
                  0,
              "cache-line padding no longer implies native SIMD alignment");

/// Size of a base page on every platform the repository targets.
inline constexpr std::size_t kPageBytes = 4096;

/// Size of a transparent huge page on x86-64.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Buffers of at least this many payload bytes ask for huge pages
/// (glibc's largest mmap threshold on 64-bit; see the file comment).
inline constexpr std::size_t kHugePageAdviceBytes = std::size_t{32} << 20;

/// Granularity at which the pages backing a buffer of `bytes` payload
/// bytes are cut: kHugePageBytes when the buffer asks for huge pages,
/// kPageBytes otherwise.  Every real page lies inside one address-aligned
/// unit of that size, whether or not the kernel follows the advice.
[[nodiscard]] constexpr std::size_t backing_page_bytes(
    std::size_t bytes) noexcept {
  return bytes >= kHugePageAdviceBytes ? kHugePageBytes : kPageBytes;
}

/// Owning, cache-line-aligned raw buffer of `T`.
///
/// Unlike std::vector the contents are *not* value-initialized on
/// construction; pages are only mapped when first written, which lets NUMA
/// placement policies (see tb::topo::PagePlacement) control page homing.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() noexcept = default;

  explicit AlignedBuffer(std::size_t count,
                         std::size_t alignment = kCacheLineBytes)
      : size_(count) {
    if (count == 0) return;
    // count * sizeof(T), rounded up to the alignment, must fit a size_t.
    if (count > (SIZE_MAX - (alignment - 1)) / sizeof(T))
      throw std::length_error("AlignedBuffer: byte count overflows size_t");
    const std::size_t bytes = round_up(count * sizeof(T), alignment);
    data_ = static_cast<T*>(std::aligned_alloc(alignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc{};
    bytes_ = bytes;
    detail::alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t live =
        detail::alloc_bytes.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    // Racy-but-monotone peak update: a lost race only under-reports by a
    // concurrent allocation's bytes, which is fine for a high-water mark.
    std::uint64_t peak = detail::alloc_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !detail::alloc_peak.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
    // aligned_alloc contracts this already; verify it anyway — the vec
    // row kernels derive "row + i is vector-aligned iff i % W == 0" from
    // it, and a misaligned base would turn their streaming stores into
    // hard faults far from the allocation site.
    if (reinterpret_cast<std::uintptr_t>(data_) % alignment != 0) {
      std::free(data_);
      data_ = nullptr;
      throw std::runtime_error(
          "AlignedBuffer: allocator returned a misaligned block");
    }
    if (backing_page_bytes(count * sizeof(T)) == kHugePageBytes)
      advise_huge_pages();
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        bytes_(std::exchange(other.bytes_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  static std::size_t round_up(std::size_t v, std::size_t a) noexcept {
    return (v + a - 1) / a * a;
  }

  /// Asks for huge pages on the kHugePageBytes-aligned interior.  Only
  /// advice: a kernel without THP refuses it and the buffer keeps its
  /// 4 KiB pages, so the result is ignored.
  void advise_huge_pages() noexcept {
#ifdef MADV_HUGEPAGE
    const auto first = reinterpret_cast<std::uintptr_t>(data_);
    const std::uintptr_t begin = round_up(first, kHugePageBytes);
    const std::uintptr_t end = (first + bytes_) / kHugePageBytes *
                               kHugePageBytes;
    if (end > begin)
      (void)madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
#endif
  }

  void release() noexcept {
    if (data_ != nullptr)
      detail::alloc_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
    bytes_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bytes_ = 0;  ///< rounded-up bytes charged to the counters
};

}  // namespace tb::util
