// Host core count.
//
// The one fact about the host's cores the system acts on: how many
// hardware threads it offers (topo::host_machine() sizes the machine with
// it, and the benchmark caps its thread counts by it).
#pragma once

#include <thread>

namespace tb::topo {

/// Number of hardware threads actually available on this host.
[[nodiscard]] inline int hardware_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace tb::topo
