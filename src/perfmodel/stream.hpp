// STREAM COPY micro-benchmarks.
//
// The diagnostic model of Sec. 1.4 is parameterized by three measured
// bandwidths:
//   Ms   — saturated multi-threaded memory bandwidth (working set >> LLC),
//   Ms,1 — single-threaded memory bandwidth,
//   Mc   — multi-threaded bandwidth of the shared cache (working set < LLC).
//
// stream_copy measures each of them on the host; the repository benchmark
// (bench/suite) calibrates its NodeModel with the three results, so the
// machine-model experiments can be re-run on real multicore hardware.
#pragma once

#include <cstddef>

namespace tb::perfmodel {

/// Result of a bandwidth measurement.
struct BandwidthResult {
  double bytes_per_second = 0.0;
  double seconds = 0.0;      ///< best-repetition wall time
  std::size_t bytes = 0;     ///< bytes moved per repetition (read+write)
};

/// STREAM COPY (b[i] = a[i]) with `threads` workers over `elems` doubles
/// per array.  `nontemporal` selects streaming stores (avoids the
/// read-for-ownership, matching how Ms is defined in the paper).
/// The reported bandwidth counts 16 bytes per element with non-temporal
/// stores and 24 bytes per element otherwise (write-allocate traffic).
[[nodiscard]] BandwidthResult stream_copy(std::size_t elems, int threads,
                                          bool nontemporal,
                                          int repetitions = 5);

}  // namespace tb::perfmodel
