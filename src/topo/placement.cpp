#include "topo/placement.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/slices.hpp"

namespace tb::topo {
namespace {

constexpr std::size_t kDoublesPerPage = kPageBytes / sizeof(double);

void zero_range(double* data, std::size_t begin, std::size_t end) {
  if (end > begin) std::memset(data + begin, 0, (end - begin) * sizeof(double));
}

/// Elements [begin, end) of `dst`: the source's payload with zero
/// padding, or zeros throughout when there is no source.
void write_range(double* dst, std::size_t begin, std::size_t end,
                 const PageSource& src) {
  if (src.data == nullptr) {
    zero_range(dst, begin, end);
    return;
  }
  while (begin < end) {
    const std::size_t row = begin - begin % src.stride;
    const std::size_t payload_end = std::min(row + src.width, end);
    if (begin < payload_end) {
      // memmove: the source may be this very destination (PageSource).
      std::memmove(dst + begin, src.data + begin,
                   (payload_end - begin) * sizeof(double));
      begin = payload_end;
    }
    const std::size_t row_end = std::min(row + src.stride, end);
    zero_range(dst, begin, row_end);
    begin = row_end;
  }
}

}  // namespace

void touch_pages(std::initializer_list<double*> dsts, std::size_t count,
                 PagePlacement policy, int threads, PageSource src) {
  if (src.data != nullptr && (src.stride == 0 || src.width > src.stride))
    throw std::invalid_argument(
        "touch_pages: source rows need stride > 0 and width <= stride");
  if (count == 0) return;
  const int writers =
      policy == PagePlacement::kSerial ? 1 : std::max(1, threads);
  const std::size_t pages = (count + kDoublesPerPage - 1) / kDoublesPerPage;
  const auto write_page = [&](std::size_t p) {
    const std::size_t begin = p * kDoublesPerPage;
    const std::size_t end = std::min(begin + kDoublesPerPage, count);
    for (double* d : dsts) write_range(d, begin, end, src);
  };
  util::for_each_slice(
      writers, std::size_t{0}, pages,
      [&](int t, std::size_t p0, std::size_t p1) {
        if (policy == PagePlacement::kRoundRobin) {
          // Thread t writes pages t, t+writers, t+2*writers, ...
          for (std::size_t p = static_cast<std::size_t>(t); p < pages;
               p += static_cast<std::size_t>(writers))
            write_page(p);
        } else {  // first-touch (or serial): one contiguous run of pages
          for (std::size_t p = p0; p < p1; ++p) write_page(p);
        }
      });
}

int page_domain(std::size_t index, PagePlacement policy, int domains,
                std::size_t elems_per_domain) {
  if (domains <= 1) return 0;
  const std::size_t page = index / kDoublesPerPage;
  switch (policy) {
    case PagePlacement::kRoundRobin:
      return static_cast<int>(page % static_cast<std::size_t>(domains));
    case PagePlacement::kFirstTouch: {
      if (elems_per_domain == 0) return 0;
      const std::size_t d = index / elems_per_domain;
      return static_cast<int>(
          std::min<std::size_t>(d, static_cast<std::size_t>(domains - 1)));
    }
    case PagePlacement::kSerial:
      return 0;
  }
  return 0;
}

}  // namespace tb::topo
