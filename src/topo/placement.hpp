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

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <thread>
#include <vector>

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

inline constexpr std::size_t kPageBytes = 4096;

/// What touch_pages writes.  The default, a null `data`, writes zeros.
/// Otherwise `data` is laid out like the destinations — rows `stride`
/// elements apart, each `width` payload elements followed by padding —
/// and every destination receives the payload with zero padding (the
/// source's own padding is never read).  `data` may be one of the
/// destinations: a solver reset to its own solution copies in place.
struct PageSource {
  const double* data = nullptr;
  std::size_t width = 0;   ///< payload elements per row
  std::size_t stride = 0;  ///< row pitch in elements, >= width
};

/// Writes the first `count` elements of every destination in `dsts`
/// according to `policy`, using `threads` logical initializer threads:
/// each page is written first by the thread the policy assigns it to
/// (round-robin: page p by thread p mod threads; first-touch: one
/// contiguous run of pages per thread; serial: the calling thread),
/// establishing first-touch homing on real ccNUMA hardware and a
/// deterministic initialization everywhere else.  All destinations
/// share the page assignment, so one call places a solver's grid pair
/// identically while each source page is read once.  Row padding ends
/// up zero with or without a source.  Throws std::invalid_argument for
/// a source with stride 0 or width > stride.
void touch_pages(std::initializer_list<double*> dsts, std::size_t count,
                 PagePlacement policy, int threads, PageSource src = {});

/// Returns the locality domain (0..domains-1) that `policy` assigns to the
/// page containing element `index`; used by the machine simulator to model
/// per-controller traffic.
[[nodiscard]] int page_domain(std::size_t index, PagePlacement policy,
                              int domains, std::size_t elems_per_domain);

}  // namespace tb::topo
