// Geometry of the block decomposition, extracted from DistributedStencil
// so that every consumer of the per-rank epoch schedule prices the *same*
// schedule:
//
//  * the executing solver (distributed_jacobi.hpp) cuts its rank-local
//    windows and level clips from it, and walks halo_plan() — one
//    epoch's exchange as a list of messages in posting order — every
//    epoch,
//  * the rank-program builder (rank_program.hpp) emits its send/recv ops
//    from the identical sequential plan, so bytes, tags and op order
//    agree with the executing solver by construction — which is what
//    makes the event engine's epoch times agree with the executing
//    thread-backed World to within floating-point noise instead of
//    "roughly".
//
// One Decomposition describes the whole world (global grid, process grid,
// halo depth); RankGeometry is the per-rank slice.  All index conventions
// are exactly those of DistributedStencil: a rank owns `own` interior
// cells starting at global index `own_lo`, surrounded by `halo` ghost
// layers, local extents own + 2*halo.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"  // core::LevelClip
#include "simnet/comm.hpp"    // simnet::CartTopology

namespace tb::dist {

/// Per-rank slice of a Decomposition.
struct RankGeometry {
  std::array<int, 3> coords{};       ///< Cartesian process coordinates
  std::array<int, 3> own_lo{};       ///< global index of first owned cell
  std::array<int, 3> own{};          ///< owned cells per dimension
  std::array<int, 3> local_n{};      ///< local extents (own + 2*halo)
  std::array<int, 3> neighbor_lo{-1, -1, -1};  ///< rank below, -1 if none
  std::array<int, 3> neighbor_hi{-1, -1, -1};  ///< rank above, -1 if none
};

/// Axis-aligned local-index box [lo, hi).
struct Box3 {
  std::array<int, 3> lo{};
  std::array<int, 3> hi{};

  [[nodiscard]] std::size_t cells() const {
    return static_cast<std::size_t>(hi[0] - lo[0]) *
           static_cast<std::size_t>(hi[1] - lo[1]) *
           static_cast<std::size_t>(hi[2] - lo[2]);
  }
};

/// One message of an epoch's halo exchange: the owned box this rank packs
/// and sends to `peer` under `send_tag`, and the ghost box it receives
/// from `peer` under `recv_tag` and unpacks.  `peer` tags its own message
/// with the direction seen from its side, so `recv_tag` is the tag of
/// the opposite direction.
struct HaloMessage {
  int phase = 0;  ///< 0, 1, 2 = x, y, z (sequential); 0 (direct)
  int peer = -1;
  int send_tag = 0;
  int recv_tag = 0;
  Box3 send;
  Box3 recv;
};

/// Phases of one epoch's halo plan: x, y, z sequentially, one direct.
[[nodiscard]] constexpr int halo_phases(bool direct) { return direct ? 1 : 3; }

class Decomposition {
 public:
  /// Throws the same admissibility errors as DistributedStencil — they
  /// depend only on global inputs, so every rank agrees.
  Decomposition(const std::array<int, 3>& global_n,
                const std::array<int, 3>& proc_dims, int halo)
      : global_n_(global_n),
        proc_dims_(proc_dims),
        halo_(halo),
        topo_(proc_dims[0] * proc_dims[1] * proc_dims[2], proc_dims) {
    if (halo < 1)
      throw std::invalid_argument("Decomposition: halo must be >= 1");
    for (int d = 0; d < 3; ++d) {
      const int interior = global_n_[static_cast<std::size_t>(d)] - 2;
      const int parts = proc_dims_[static_cast<std::size_t>(d)];
      if (parts < 1)
        throw std::invalid_argument("Decomposition: bad process grid");
      if (interior < parts)
        throw std::invalid_argument(
            "DistributedStencil: more ranks than interior cells");
      // Minimum share of the balanced partition; must depend only on the
      // global geometry so no rank of an uneven partition disagrees.
      if (parts > 1 && interior / parts < halo_)
        throw std::invalid_argument(
            "DistributedStencil: subdomain thinner than the halo width");
    }
  }

  [[nodiscard]] int ranks() const {
    return proc_dims_[0] * proc_dims_[1] * proc_dims_[2];
  }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] const std::array<int, 3>& global_n() const {
    return global_n_;
  }
  [[nodiscard]] const std::array<int, 3>& proc_dims() const {
    return proc_dims_;
  }
  [[nodiscard]] const simnet::CartTopology& topology() const { return topo_; }

  /// Balanced partition along dimension d: {first owned global index,
  /// owned cell count} of process coordinate c.
  [[nodiscard]] std::pair<int, int> owned_range(int d, int c) const {
    const int interior = global_n_[static_cast<std::size_t>(d)] - 2;
    const int parts = proc_dims_[static_cast<std::size_t>(d)];
    const int lo = 1 + static_cast<int>(1LL * c * interior / parts);
    const int next = 1 + static_cast<int>(1LL * (c + 1) * interior / parts);
    return {lo, next - lo};
  }

  [[nodiscard]] RankGeometry geometry(int rank) const {
    RankGeometry g;
    g.coords = topo_.coords_of(rank);
    for (int d = 0; d < 3; ++d) {
      const auto [lo, cnt] = owned_range(d, g.coords[static_cast<std::size_t>(d)]);
      g.own_lo[static_cast<std::size_t>(d)] = lo;
      g.own[static_cast<std::size_t>(d)] = cnt;
      g.local_n[static_cast<std::size_t>(d)] = cnt + 2 * halo_;
      g.neighbor_lo[static_cast<std::size_t>(d)] = topo_.neighbor(rank, d, -1);
      g.neighbor_hi[static_cast<std::size_t>(d)] = topo_.neighbor(rank, d, +1);
    }
    return g;
  }

  /// Per-level update regions in local coordinates: level s may update
  /// cells at ghost depth <= h - s on sides with a neighbour, and only
  /// the global interior on physical-boundary sides.
  [[nodiscard]] std::vector<core::LevelClip> level_clips(
      const RankGeometry& g) const {
    std::vector<core::LevelClip> clips(static_cast<std::size_t>(halo_));
    for (int s = 1; s <= halo_; ++s) {
      core::LevelClip& c = clips[static_cast<std::size_t>(s - 1)];
      for (int d = 0; d < 3; ++d) {
        const std::size_t du = static_cast<std::size_t>(d);
        c.lo[du] = g.neighbor_lo[du] >= 0 ? s : halo_;
        c.hi[du] = g.neighbor_hi[du] >= 0 ? g.local_n[du] - s
                                          : halo_ + g.own[du];
      }
    }
    return clips;
  }

  /// Cell updates of one epoch.  With `inner_only`, only cells whose
  /// whole dependency cone stays inside owned data are counted: a
  /// level-s update transitively reads base-level values within distance
  /// s, so on a neighbour-facing side it must keep a distance of s from
  /// the owned-region boundary to be computable before the ghost layers
  /// arrive.
  [[nodiscard]] long long compute_cells(const RankGeometry& g,
                                        bool inner_only) const {
    long long cells = 0;
    const std::vector<core::LevelClip> clips = level_clips(g);
    for (int s = 1; s <= halo_; ++s) {
      const core::LevelClip& c = clips[static_cast<std::size_t>(s - 1)];
      long long full = 1, inner = 1;
      for (int d = 0; d < 3; ++d) {
        const std::size_t du = static_cast<std::size_t>(d);
        const int lo = g.neighbor_lo[du] >= 0 ? halo_ + s : c.lo[du];
        const int hi = g.neighbor_hi[du] >= 0 ? halo_ + g.own[du] - s
                                              : c.hi[du];
        full *= std::max(0, c.hi[du] - c.lo[du]);
        inner *= std::max(0, hi - lo);
      }
      cells += inner_only ? inner : full;
    }
    return cells;
  }

  /// One epoch's halo exchange of rank `g`, in posting order.  Each
  /// phase posts all of its sends, then takes all of its receives.
  ///
  /// Sequential (the paper's Sec. 2.1 scheme): three face phases
  /// x -> y -> z of at most two slabs each.  The slab of phase d spans
  /// the ghost extents that phases < d already refreshed, which carries
  /// edge and corner data in two respectively three hops — 6 messages
  /// per interior rank.
  ///
  /// Direct (`direct`): one phase of up to 26 face, edge and corner boxes,
  /// each sent straight to its (possibly diagonal) neighbour.  Its recv
  /// boxes cover exactly the ghost cells of the sequential plan.
  [[nodiscard]] std::vector<HaloMessage> halo_plan(const RankGeometry& g,
                                                   bool direct) const {
    std::vector<HaloMessage> plan;
    plan.reserve(direct ? 26 : 6);
    // v is the direction from this rank to the peer; tags 0..26 number
    // the direction vectors, below DistributedStencil's gather tags.
    const auto tag = [](const std::array<int, 3>& v) {
      return (v[0] + 1) + 3 * (v[1] + 1) + 9 * (v[2] + 1);
    };
    const auto post = [&](int phase, const std::array<int, 3>& v) {
      std::array<int, 3> c = g.coords;
      for (std::size_t d = 0; d < 3; ++d) {
        c[d] += v[d];
        if (c[d] < 0 || c[d] >= proc_dims_[d]) return;
      }
      HaloMessage m;
      m.phase = phase;
      m.peer = topo_.rank_of(c);
      m.send_tag = tag(v);
      m.recv_tag = tag({-v[0], -v[1], -v[2]});
      m.send = m.recv = exchange_base_box(g, direct ? 0 : phase);
      for (std::size_t d = 0; d < 3; ++d) {
        if (v[d] == 0) continue;
        // The outermost `halo` owned layers facing the peer go out; the
        // `halo` ghost layers beyond that face come in.
        m.send.lo[d] = v[d] < 0 ? halo_ : g.own[d];
        m.recv.lo[d] = v[d] < 0 ? 0 : halo_ + g.own[d];
        m.send.hi[d] = m.send.lo[d] + halo_;
        m.recv.hi[d] = m.recv.lo[d] + halo_;
      }
      plan.push_back(m);
    };
    if (direct) {
      for (int vz = -1; vz <= 1; ++vz)
        for (int vy = -1; vy <= 1; ++vy)
          for (int vx = -1; vx <= 1; ++vx)
            if (vx != 0 || vy != 0 || vz != 0) post(0, {vx, vy, vz});
    } else {
      for (int d = 0; d < 3; ++d)
        for (int side = -1; side <= 1; side += 2) {
          std::array<int, 3> v{0, 0, 0};
          v[static_cast<std::size_t>(d)] = side;
          post(d, v);
        }
    }
    return plan;
  }

 private:
  /// Transverse extents of the boxes exchanged in phase d of the
  /// sequential plan: dimensions already exchanged (e < d) span the
  /// refreshed full ghost extent where a neighbour exists, the rest span
  /// the owned cells plus the physical boundary layer.  Phase 0's box is
  /// the direct plan's.  halo_plan() sets the extents along the message
  /// direction.
  [[nodiscard]] Box3 exchange_base_box(const RankGeometry& g, int d) const {
    Box3 b;
    for (int e = 0; e < 3; ++e) {
      const std::size_t eu = static_cast<std::size_t>(e);
      if (e < d) {  // refreshed: full ghost where a neighbour exists
        b.lo[eu] = g.neighbor_lo[eu] >= 0 ? 0 : halo_ - 1;
        b.hi[eu] = g.neighbor_hi[eu] >= 0 ? g.local_n[eu]
                                          : halo_ + g.own[eu] + 1;
      } else {  // not yet: owned cells plus the physical boundary layer
        b.lo[eu] = g.neighbor_lo[eu] >= 0 ? halo_ : halo_ - 1;
        b.hi[eu] = g.neighbor_hi[eu] >= 0 ? halo_ + g.own[eu]
                                          : halo_ + g.own[eu] + 1;
      }
    }
    return b;
  }

  std::array<int, 3> global_n_;
  std::array<int, 3> proc_dims_;
  int halo_;
  simnet::CartTopology topo_;
};

}  // namespace tb::dist
