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

/// Source row of destination row (j, k), or null when it lies outside
/// the source.
const double* source_row(const PageSource& src, std::size_t j,
                         std::size_t k) {
  const std::ptrdiff_t sj = static_cast<std::ptrdiff_t>(j) + src.origin[1];
  const std::ptrdiff_t sk = static_cast<std::ptrdiff_t>(k) + src.origin[2];
  if (sj < 0 || sk < 0 || static_cast<std::size_t>(sj) >= src.extent[1] ||
      static_cast<std::size_t>(sk) >= src.extent[2])
    return nullptr;
  return src.data + (static_cast<std::size_t>(sk) * src.extent[1] +
                     static_cast<std::size_t>(sj)) *
                        src.pitch;
}

/// Elements [begin, end) of `dst`: the source window with zeros outside
/// it and in the row padding, or zeros throughout when there is no
/// source.
void write_range(double* dst, std::size_t begin, std::size_t end,
                 const PageSource& src) {
  if (src.data == nullptr) {
    zero_range(dst, begin, end);
    return;
  }
  // Columns [ilo, ihi) of every row have their source inside the
  // source's x extent.
  const std::ptrdiff_t ox = src.origin[0];
  const auto clamp_x = [&](std::ptrdiff_t i) {
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
        i, 0, static_cast<std::ptrdiff_t>(src.width)));
  };
  const std::size_t ilo = clamp_x(-ox);
  const std::size_t ihi =
      clamp_x(static_cast<std::ptrdiff_t>(src.extent[0]) - ox);
  const std::size_t r = begin / src.stride;
  std::size_t j = r % src.height, k = r / src.height;
  std::size_t row = r * src.stride;
  while (begin < end) {
    const std::size_t row_end = std::min(row + src.stride, end);
    if (const double* s = source_row(src, j, k)) {
      const std::size_t c0 = std::max(begin, row + ilo);
      const std::size_t c1 = std::min(row_end, row + ihi);
      if (c0 < c1) {
        zero_range(dst, begin, c0);
        // memmove: the source may be this very destination (PageSource).
        std::memmove(dst + c0,
                     s + (static_cast<std::ptrdiff_t>(c0 - row) + ox),
                     (c1 - c0) * sizeof(double));
        begin = c1;
      }
    }
    zero_range(dst, begin, row_end);
    begin = row_end;
    row += src.stride;
    if (++j == src.height) {
      j = 0;
      ++k;
    }
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
                 PagePlacement policy, int threads, const PageSource& src) {
  if (src.data != nullptr &&
      (src.stride == 0 || src.width > src.stride || src.height == 0 ||
       src.pitch < src.extent[0]))
    throw std::invalid_argument(
        "touch_pages: a source needs stride > 0, width <= stride, "
        "height > 0 and pitch >= extent[0]");
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
