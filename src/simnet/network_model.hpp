// Simulated-time cost model for the in-process message-passing runtime.
//
// This environment has no MPI and no InfiniBand, so the distributed-memory
// experiments run all ranks as threads of one process (tb::simnet::World).
// Data movement is real (buffers are copied between ranks); *timing* is
// simulated: every communication operation advances per-rank simulated
// clocks according to a latency/bandwidth model — the same model class the
// paper uses analytically in Sec. 2.1, here applied per message to an
// actually-executing program.
#pragma once

#include <cstddef>

namespace tb::simnet {

/// Latency/bandwidth cost model of one point-to-point link.
struct NetworkModel {
  double latency = 1.8e-6;    ///< seconds to first byte (QDR-IB default)
  double bandwidth = 3.2e9;   ///< asymptotic unidirectional bytes/s
  /// Fraction of the transfer time additionally spent copying payload to
  /// and from intermediate message buffers.  The paper's profiling found
  /// this overhead to be about equal to the transfer itself (Sec. 2.2).
  double pack_overhead = 1.0;

  /// Simulated seconds to move one `bytes`-sized message end to end.
  [[nodiscard]] double message_seconds(std::size_t bytes) const {
    return (latency + static_cast<double>(bytes) / bandwidth) *
           (1.0 + pack_overhead);
  }

  /// Cost of a synchronizing collective over `ranks` participants
  /// (log-tree of zero-payload messages) — the *thread-backed fallback*:
  /// it charges bare latency per stage regardless of which wires the
  /// tree actually crosses.  The discrete-event backend prices the same
  /// log-tree over the fabric's real links instead
  /// (simnet::event::collective_seconds), where torus hop counts and
  /// oversubscribed uplinks make the stages topology-dependent.
  [[nodiscard]] double collective_seconds(int ranks) const {
    int stages = 0;
    for (int r = 1; r < ranks; r *= 2) ++stages;
    return latency * stages;
  }
};

}  // namespace tb::simnet
