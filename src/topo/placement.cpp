#include "topo/placement.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/aligned_buffer.hpp"
#include "util/slices.hpp"

namespace tb::topo {
namespace {

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

PageSplit split_pages(std::uintptr_t base, std::size_t count,
                      std::size_t page_bytes) {
  PageSplit split;
  split.count = count;
  split.per_page = page_bytes / sizeof(double);
  // Elements from `base` up to the next page boundary (a whole page
  // when `base` sits on one).
  const std::size_t to_boundary = page_bytes - base % page_bytes;
  split.head = std::min(count, to_boundary / sizeof(double));
  return split;
}

void touch_pages(std::initializer_list<double*> dsts, std::size_t count,
                 PagePlacement policy, int threads, PageSource src) {
  if (src.data != nullptr && (src.stride == 0 || src.width > src.stride))
    throw std::invalid_argument(
        "touch_pages: source rows need stride > 0 and width <= stride");
  if (count == 0) return;
  const int writers =
      policy == PagePlacement::kSerial ? 1 : std::max(1, threads);
  const std::size_t page_bytes =
      util::backing_page_bytes(count * sizeof(double));
  util::for_each_slice(
      writers, 0, writers, [&](int t, int /*s0*/, int /*s1*/) {
        for (double* d : dsts) {
          const PageSplit split = split_pages(
              reinterpret_cast<std::uintptr_t>(d), count, page_bytes);
          for_each_owned_page(split, policy, t, writers, [&](std::size_t u) {
            write_range(d, split.begin(u), split.end(u), src);
          });
        }
      });
}

}  // namespace tb::topo
