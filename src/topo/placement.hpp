// NUMA page-placement policies.
//
// The baseline Jacobi uses *first-touch* placement (each thread initializes
// the pages it will later update), which is optimal for static work
// distribution on ccNUMA nodes.  Pipelined temporal blocking defeats
// first-touch — every thread updates every block — so the paper uses a
// *round-robin* page distribution to spread memory pressure evenly across
// the sockets' controllers.
//
// Without libnuma (and on this single-socket VM) placement is emulated: the
// policy decides which *logical initializing thread* first writes each page,
// which is exactly the mechanism by which first-touch policies operate.  The
// discrete-event simulator consumes the same policy enum to model bandwidth
// distribution across controllers.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "util/slices.hpp"

namespace tb::topo {

/// Page placement policy for grid storage.
enum class PagePlacement {
  kFirstTouch,   ///< pages homed where the owning thread first writes them
  kRoundRobin,   ///< pages interleaved across locality domains
  kSerial,       ///< all pages touched by the calling thread (worst case)
};

[[nodiscard]] constexpr const char* to_string(PagePlacement p) {
  switch (p) {
    case PagePlacement::kFirstTouch: return "first-touch";
    case PagePlacement::kRoundRobin: return "round-robin";
    case PagePlacement::kSerial: return "serial";
  }
  return "?";
}

/// Elements [0, count) of an array of doubles at address `base`, cut into
/// its backing pages: the page boundaries are the address multiples of
/// `page_bytes`, so a base inside a page makes page 0 a short head, and
/// the last page may be short too.  Page u covers [begin(u), end(u)).
struct PageSplit {
  std::size_t count = 0;     ///< elements covered
  std::size_t head = 0;      ///< elements of page 0; 0 <=> count == 0
  std::size_t per_page = 1;  ///< elements of every full page

  [[nodiscard]] std::size_t pages() const noexcept {
    return count == 0 ? 0 : 1 + (count - head + per_page - 1) / per_page;
  }
  [[nodiscard]] std::size_t begin(std::size_t u) const noexcept {
    return u == 0 ? 0 : std::min(count, head + (u - 1) * per_page);
  }
  [[nodiscard]] std::size_t end(std::size_t u) const noexcept {
    return begin(u + 1);
  }
};

/// The split of `count` doubles at `base` into pages of `page_bytes`
/// (both multiples of sizeof(double)).
[[nodiscard]] PageSplit split_pages(std::uintptr_t base, std::size_t count,
                                    std::size_t page_bytes);

/// Calls fn(u) for every page u of `split` that initializer thread t of
/// `writers` writes first under `policy`: round-robin pages t,
/// t + writers, t + 2*writers, ...; first-touch one contiguous run, the
/// balanced split of util::for_each_slice; serial every page for t = 0.
template <class Fn>
void for_each_owned_page(const PageSplit& split, PagePlacement policy, int t,
                         int writers, Fn&& fn) {
  const std::size_t pages = split.pages();
  const auto tt = static_cast<std::size_t>(t);
  if (policy == PagePlacement::kRoundRobin) {
    for (std::size_t u = tt; u < pages; u += static_cast<std::size_t>(writers))
      fn(u);
    return;
  }
  const std::size_t parts =
      policy == PagePlacement::kSerial ? 1 : static_cast<std::size_t>(writers);
  if (tt >= parts) return;
  const std::size_t last = util::slice_begin(pages, tt + 1, parts);
  for (std::size_t u = util::slice_begin(pages, tt, parts); u < last; ++u)
    fn(u);
}

/// What touch_pages writes.  The default, a null `data`, writes zeros.
/// Otherwise every destination is a grid of rows `stride` elements
/// apart, each `width` payload elements followed by padding, `height`
/// rows to a z-plane, and receives a window of the source grid at
/// `data`: destination cell (i, j, k) takes source cell
/// (i, j, k) + origin.  Cells whose source cell lies outside the
/// source's `extent`, and the row padding, come out zero; the source's
/// own padding is never read.  The origin may be negative and the window
/// may leave the source on any side (a rank's window of the global grid
/// with its out-of-domain ghost cells).  A source laid out like the
/// destinations is the zero-offset window of their own extents and
/// pitch; `data` may then be one of the destinations: a solver reset to
/// its own solution copies in place.  core::window_source builds one
/// from two grids.
struct PageSource {
  const double* data = nullptr;
  std::size_t width = 0;   ///< destination payload elements per row
  std::size_t stride = 0;  ///< destination row pitch in elements, >= width
  std::size_t height = 0;  ///< destination rows per z-plane, >= 1
  std::array<std::ptrdiff_t, 3> origin{};  ///< source cell of (0, 0, 0)
  std::array<std::size_t, 3> extent{};     ///< source nx, ny, nz
  std::size_t pitch = 0;  ///< source row pitch in elements, >= extent[0]
};

/// Writes the first `count` elements of every destination in `dsts`
/// according to `policy`, using `threads` logical initializer threads.
/// A page is a page that backs the destination: an address-aligned
/// 4 KiB page, or a 2 MiB one when `count` doubles reach the 32 MiB at
/// which util::AlignedBuffer asks for huge pages (glibc maps buffers
/// that large fresh, so the advice never lands on recycled heap memory;
/// util::backing_page_bytes).
/// Each page is written first by exactly the one thread the policy
/// assigns it to (for_each_owned_page: round-robin page u by thread
/// u mod threads, first-touch one contiguous run of pages per thread,
/// serial the calling thread), establishing first-touch homing on real
/// ccNUMA hardware and a deterministic initialization everywhere else.
/// Destinations may sit at different offsets in their pages, so each is
/// split on its own and a source row may be read once per destination.
/// Do not align a grid pair to 2 MiB to make the splits coincide: a[i]
/// and b[i] then share cache sets, and pipelined Jacobi at the memory
/// tier lost a third of its throughput (see util/aligned_buffer.hpp).
/// Row padding ends up zero with or without a source.  Throws
/// std::invalid_argument for a source with stride 0, width > stride,
/// height 0 or pitch < extent[0].
void touch_pages(std::initializer_list<double*> dsts, std::size_t count,
                 PagePlacement policy, int threads, const PageSource& src = {});

}  // namespace tb::topo
