// Full dimension exchange on the recursive presentation of the dual-cube.
//
// Section 6 of the paper: a compare-exchange pair (u, u^j) at dimension
// j > 0 has a direct link only for the half of the nodes whose bit 0
// matches the parity of j; the other half must route in three hops
// u → u^0 → (u^0)^j → u^j. The paper charges three time units for the whole
// dimension step; the concrete 1-port schedule we use is:
//
//   cycle 1: every *indirect* node b ships its value to its cross neighbor
//            a = b^0 (cross-edges only);
//   cycle 2: every *direct* node a exchanges the combined message
//            (value[a], value[b]) with its partner a^j over the direct
//            dimension-j link;
//   cycle 3: a forwards value[b^j] (the second half it received) back to b
//            over the cross-edge.
//
// Each node sends at most one and receives at most one message per cycle,
// which the simulator enforces. Dimension 0 is a plain one-cycle exchange.
//
// Every node's value is a fixed-width block of T in a node-major plane
// (width 1 for scalar values), so there is one relay implementation:
// dimension_exchange_blocks. It carries the dual-cube bitonic sort
// (Algorithm 3, every width) and the naive hypercube-emulation ablation.
// The relay pattern is oblivious — it depends only on j — so all cycles
// run through an ObliviousSection: callers composing many dimension steps
// pass their own section so the whole composite run compiles to one
// schedule; the standalone dimension_exchange opens a per-(order, j)
// section itself.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::core {

/// The live result of one block dimension exchange: a zero-copy view over
/// the inbox planes the exchange ended on. `recv(u)` points at the `width`
/// elements node u received — for a relayed dimension that is the cycle-2
/// pairs plane for direct nodes and the cycle-3 return plane for indirect
/// ones, so no copy-out pass runs at all. Move-only (it owns the pooled
/// planes); destroying it recycles them, so consume it before issuing the
/// next block cycle of the same element type if plane reuse matters.
template <typename T>
struct BlockExchange {
  sim::BlockInbox<T> primary;   // j == 0 inbox, or the cycle-2 pairs plane
  sim::BlockInbox<T> returned;  // cycle-3 plane; empty when not relayed
  sim::BlockInbox<T> gathered;  // cycle-1 plane, kept only under faults
  std::size_t width = 0;
  unsigned j = 0;
  unsigned direct0 = 0;
  bool relayed = false;

  /// Whether node u's block arrived, on a machine with faults attached
  /// (a healthy machine loses nothing and keeps no cycle-1 plane). A
  /// direct node needs its cycle-2 pair. An indirect node needs its cycle-3
  /// block, its relay's cycle-2 pair and the cycle-1 gather of that pair's
  /// sender: a lost gather leaves an earlier cycle's block in the sender's
  /// row, and cycles 2 and 3 would pass it on as if it were fresh.
  bool has(net::NodeId u) const {
    if (!relayed || dc::bits::get(u, 0) == direct0) return primary.has(u);
    const net::NodeId relay = dc::bits::flip(u, 0);
    return returned.has(u) && primary.has(relay) &&
           gathered.has(dc::bits::flip(relay, j));
  }

  /// The block node u received this exchange (`width` elements).
  const T* recv(net::NodeId u) const {
    if (!relayed) return primary.block(u);
    // Direct nodes keep the first half of the pair they exchanged; indirect
    // nodes read the half their relay returned on cycle 3.
    return dc::bits::get(u, 0) == direct0 ? primary.block(u)
                                          : returned.block(u);
  }
};

/// Exchanges node blocks across dimension `j` for every node
/// simultaneously, issuing the cycles into the caller's oblivious section:
/// every node's value is a fixed-width block of T held in the node-major
/// plane `plane[u * width + k]`, and node u receives the block of u ^ (1<<j).
/// Costs 1 communication cycle when j == 0, 3 otherwise. Cycle 2's combined
/// relay message is one 2*width stride (own block then gathered block).
/// Every cycle's source is a PlaneSrc over the caller's plane or the
/// previous cycle's inbox plane (cycle 2's names the gathered plane as its
/// tail), so on replay the whole exchange is a few plane-to-plane sweeps
/// with no per-sender callbacks and no copy-out — the result is a view
/// (BlockExchange) into the final planes.
template <typename T>
BlockExchange<T> dimension_exchange_blocks(sim::Machine& m,
                                           sim::ObliviousSection& sched,
                                           const net::RecursiveDualCube& r,
                                           unsigned j,
                                           const std::vector<T>& plane,
                                           std::size_t width) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&r),
             "machine must run on the given recursive dual-cube");
  DC_REQUIRE(j < r.label_bits(), "dimension out of range");
  DC_REQUIRE(width >= 1, "block width must be >= 1");
  DC_REQUIRE(plane.size() == r.node_count() * width,
             "one width-sized block per node required");

  BlockExchange<T> ex;
  ex.width = width;

  if (j == 0) {
    ex.primary = sched.exchange_blocks<T>(
        width, [](net::NodeId u) { return dc::bits::flip(u, 0); },
        sim::PlaneSrc<T>{plane.data(), width});
    return ex;
  }

  // Bit-0 value of the nodes with a direct dimension-j link.
  ex.j = j;
  ex.direct0 = j % 2 == 0 ? 0u : 1u;
  ex.relayed = true;
  const unsigned direct0 = ex.direct0;

  // Cycle 1: indirect nodes ship their block across the cross-edge.
  auto gathered = sched.exchange_blocks<T>(
      width,
      [&](net::NodeId u) -> net::NodeId {
        if (dc::bits::get(u, 0) == direct0) return sim::kNoSend;
        return dc::bits::flip(u, 0);
      },
      sim::PlaneSrc<T>{plane.data(), width});

  // Cycle 2: direct nodes exchange (own block ‖ gathered block) strides.
  ex.primary = sched.exchange_blocks<T>(
      2 * width,
      [&](net::NodeId u) -> net::NodeId {
        if (dc::bits::get(u, 0) != direct0) return sim::kNoSend;
        return dc::bits::flip(u, j);
      },
      sim::PlaneSrc<T>{plane.data(), width, gathered.data(),
                       gathered.stride(), width});

  // Cycle 3: direct nodes keep the first half and return the second to
  // their cross neighbor.
  ex.returned = sched.exchange_blocks<T>(
      width,
      [&](net::NodeId u) -> net::NodeId {
        if (dc::bits::get(u, 0) != direct0) return sim::kNoSend;
        return dc::bits::flip(u, 0);
      },
      sim::PlaneSrc<T>{ex.primary.data() + width, ex.primary.stride()});
  if (m.has_faults()) ex.gathered = std::move(gathered);
  return ex;
}

/// Copy-out form of the block dimension exchange: the exchanged blocks land
/// in `recv` (node-major plane, resized by the callee). Thin wrapper over
/// the view-returning overload for callers that need an owned plane.
template <typename T>
void dimension_exchange_blocks(sim::Machine& m, sim::ObliviousSection& sched,
                               const net::RecursiveDualCube& r, unsigned j,
                               const std::vector<T>& plane, std::size_t width,
                               std::vector<T>& recv) {
  const std::size_t n_nodes = r.node_count();
  recv.resize(n_nodes * width);
  const auto ex = dimension_exchange_blocks(m, sched, r, j, plane, width);
  m.for_each_node([&](net::NodeId u) {
    std::copy_n(ex.recv(u), width, recv.data() + u * width);
  });
}

/// Standalone scalar form: exchanges `value` across dimension `j` (recv[u]
/// = value[u ^ (1<<j)]) as a width-1 block exchange in its own schedule
/// section keyed by (order, j), so repeated exchanges along one dimension
/// replay a cached schedule.
template <typename V>
std::vector<V> dimension_exchange(sim::Machine& m,
                                  const net::RecursiveDualCube& r, unsigned j,
                                  const std::vector<V>& value) {
  DC_REQUIRE(j < r.label_bits(), "dimension out of range");
  sim::ObliviousSection sched(m, "dimension_exchange", {r.order(), j});
  std::vector<V> recv;
  dimension_exchange_blocks(m, sched, r, j, value, 1, recv);
  sched.commit();
  return recv;
}

}  // namespace dc::core
