// Pipelined broadcast of large messages over the embedded Hamiltonian ring.
//
// Broadcasting a B-chunk message by running the 2n-cycle binomial schedule
// once per chunk costs 2nB cycles. The dilation-1 ring embedding
// (hamiltonian.hpp) enables the classic pipeline: the root pushes chunk
// after chunk around the ring, every node forwarding the previous cycle's
// chunk while receiving the next — (N-2) + B cycles in one direction. The
// crossover B* ≈ (N-2)/(2n-1) is measured in bench/tab_pipeline_broadcast:
// small messages favor the binomial tree, bulk data the ring — the same
// latency/bandwidth split as the sorting-alternatives table.
//
// The pipeline is oblivious: at cycle t, the node at ring position p
// forwards chunk t-p iff 0 <= t-p < B — a pure function of (ring, root, B)
// — and in a healthy run position p has received chunks 0..t-p-1 by cycle
// t (chunk c reaches position p at cycle c+p-1 < t), so the have-I-got-it
// guard below never fires and never feeds data back into the destinations.
// The whole (N-2)+B-cycle run therefore compiles through one
// ObliviousSection keyed by (root, B, ring fingerprint); under faults the
// machine interprets as usual and the guard becomes load-bearing again.
#pragma once

#include <optional>
#include <vector>

#include "collectives/broadcast.hpp"
#include "sim/oblivious.hpp"
#include "topology/hamiltonian.hpp"

namespace dc::collectives {

/// FNV-1a over a ring's node sequence — distinguishes schedules of
/// different rings on the same topology in the cache key.
inline dc::u64 ring_fingerprint(const std::vector<net::NodeId>& ring) {
  dc::u64 h = 1469598103934665603ull;
  for (const net::NodeId u : ring) {
    h ^= u;
    h *= 1099511628211ull;
  }
  return h;
}

/// Broadcasts `chunks` from `root` along `ring` (a Hamiltonian cycle of
/// the machine's topology, dilation 1). Returns the chunks as received by
/// every node (all equal to the input). Costs (N-2) + chunks.size()
/// communication cycles; compiled after the first run per
/// (topology, ring, root, B).
template <typename V>
std::vector<std::vector<V>> ring_pipeline_broadcast(
    sim::Machine& m, const std::vector<net::NodeId>& ring, net::NodeId root,
    const std::vector<V>& chunks) {
  const std::size_t n_nodes = m.topology().node_count();
  DC_REQUIRE(ring.size() == n_nodes, "ring must cover every node");
  DC_REQUIRE(root < n_nodes, "root out of range");
  DC_REQUIRE(!chunks.empty(), "nothing to broadcast");

  // Ring successor map, rotated so the walk starts at the root. The last
  // ring node needs no forwarding (its successor is the root).
  std::size_t root_pos = 0;
  while (ring[root_pos] != root) ++root_pos;
  std::vector<net::NodeId> successor(n_nodes);
  std::vector<std::size_t> position(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const net::NodeId u = ring[(root_pos + i) % n_nodes];
    successor[u] = ring[(root_pos + i + 1) % n_nodes];
    position[u] = i;
  }

  sim::ObliviousSection sched(m, "ring_pipeline_broadcast",
                              {root, chunks.size(), ring_fingerprint(ring)});

  // received[u] = chunks accepted so far. At cycle t, the node at ring
  // position p forwards chunk t-p (if it exists) to position p+1.
  std::vector<std::vector<V>> received(n_nodes);
  received[root] = chunks;
  const std::size_t total_cycles = (n_nodes - 2) + chunks.size();
  for (std::size_t t = 0; t < total_cycles; ++t) {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          const std::size_t p = position[u];
          if (p + 1 >= n_nodes) return sim::kNoSend;  // end of the pipeline
          if (t < p || t - p >= chunks.size()) return sim::kNoSend;
          // Deterministically in-hand when healthy (see header comment);
          // only an attached fault plan — which forces the interpreted
          // path — can make this guard fire.
          if (u != root && t - p >= received[u].size()) return sim::kNoSend;
          return successor[u];
        },
        [&](net::NodeId u) {
          const std::size_t chunk = t - position[u];
          return u == root ? chunks[chunk] : received[u][chunk];
        });
    m.for_each_node([&](net::NodeId u) {
      if (inbox.has(u) && u != root) received[u].push_back(*inbox.block(u));
    });
  }
  sched.commit();
  for (net::NodeId u = 0; u < n_nodes; ++u)
    DC_CHECK(received[u].size() == chunks.size(),
             "pipeline under-delivered at node " << u);
  return received;
}

/// Broadcasts `chunks` from `root` around the canonical Hamiltonian ring
/// of D_n (n >= 2).
template <typename V>
std::vector<std::vector<V>> ring_pipeline_broadcast(
    sim::Machine& m, const net::DualCube& d, net::NodeId root,
    const std::vector<V>& chunks) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  return ring_pipeline_broadcast(m, net::dual_cube_hamiltonian_cycle(d), root,
                                 chunks);
}

/// Baseline: the 2n-cycle binomial-style broadcast repeated per chunk.
template <typename V>
std::vector<std::vector<V>> repeated_binomial_broadcast(
    sim::Machine& m, const net::DualCube& d, net::NodeId root,
    const std::vector<V>& chunks) {
  std::vector<std::vector<V>> received(d.node_count());
  for (const V& chunk : chunks) {
    const auto out = dual_broadcast(m, d, root, chunk);
    for (net::NodeId u = 0; u < d.node_count(); ++u)
      received[u].push_back(out[u]);
  }
  return received;
}

}  // namespace dc::collectives
