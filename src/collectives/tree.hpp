// Generic spanning-tree collectives for ANY topology — the baseline the
// cluster technique is measured against.
//
// The broadcast floods a BFS spanning tree under the 1-port model: a node
// holding the value serves its children one per cycle (children ordered by
// label). The completion time is max over leaves of
// sum(child-rank along the path) + depth-ish — always >= the diameter and
// usually worse, because high-degree tree nodes serialize. On the
// dual-cube, the specialized schedule of broadcast.hpp finishes in exactly
// 2n cycles; bench/ablation_tree_collectives quantifies the gap.
#pragma once

#include <optional>
#include <vector>

#include "core/ops.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/graph.hpp"

namespace dc::collectives {

/// BFS-tree broadcast of `value` from `root` on any connected topology.
/// Returns the per-node values (all equal).
template <typename V>
std::vector<V> tree_broadcast(sim::Machine& m, const net::Topology& t,
                              net::NodeId root, const V& value) {
  DC_REQUIRE(root < t.node_count(), "root out of range");
  const std::size_t n = t.node_count();

  // Children lists of the BFS tree (uncounted preprocessing: the tree is a
  // static property of the network).
  const auto dist = net::bfs_distances(t, root);
  std::vector<std::vector<net::NodeId>> children(n);
  for (net::NodeId u = 0; u < n; ++u) {
    if (u == root) continue;
    DC_REQUIRE(dist[u] != net::kUnreachable, "broadcast needs connectivity");
    for (const net::NodeId v : t.neighbors(u)) {
      if (dist[v] + 1 == dist[u]) {
        children[v].push_back(u);
        break;
      }
    }
  }

  // The flood order is a pure function of the tree (hence of topology and
  // root), so the whole serial-children schedule compiles per root.
  sim::ObliviousSection sched(m, "tree_broadcast", {root});
  std::vector<std::uint8_t> have(n, 0);
  std::vector<std::size_t> next_child(n, 0);
  have[root] = 1;
  std::size_t covered = 1;
  while (covered < n) {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u] || next_child[u] >= children[u].size())
            return sim::kNoSend;
          return children[u][next_child[u]];
        },
        [&](net::NodeId) { return value; });
    for (net::NodeId u = 0; u < n; ++u) {
      if (have[u] && next_child[u] < children[u].size()) ++next_child[u];
    }
    for (net::NodeId u = 0; u < n; ++u) {
      if (inbox.has(u) && !have[u]) {
        have[u] = 1;
        ++covered;
      }
    }
  }
  sched.commit();
  return std::vector<V>(n, value);
}

/// BFS-tree reduce to `root` (commutative ⊕): leaves push up, each parent
/// absorbs one child per cycle.
template <dc::core::Monoid M>
typename M::value_type tree_reduce(sim::Machine& m, const net::Topology& t,
                                   net::NodeId root, const M& op,
                                   std::vector<typename M::value_type> values) {
  using V = typename M::value_type;
  DC_REQUIRE(root < t.node_count(), "root out of range");
  DC_REQUIRE(values.size() == t.node_count(), "one value per node required");
  const std::size_t n = t.node_count();

  const auto dist = net::bfs_distances(t, root);
  std::vector<net::NodeId> parent(n, root);
  std::vector<std::size_t> pending_children(n, 0);
  for (net::NodeId u = 0; u < n; ++u) {
    if (u == root) continue;
    DC_REQUIRE(dist[u] != net::kUnreachable, "reduce needs connectivity");
    for (const net::NodeId v : t.neighbors(u)) {
      if (dist[v] + 1 == dist[u]) {
        parent[u] = v;
        ++pending_children[v];
        break;
      }
    }
  }

  // The up-sweep order is likewise fixed by the tree: per-cycle sender
  // sets depend only on which ranks drained in earlier (deterministic)
  // cycles, never on the values.
  sim::ObliviousSection sched(m, "tree_reduce", {root});
  std::vector<std::uint8_t> sent(n, 0);
  std::size_t remaining = n - 1;
  while (remaining > 0) {
    // Ready nodes (all children absorbed) offer their value to the parent;
    // the lowest-labeled ready child of each parent wins this cycle.
    std::vector<std::uint8_t> rx_claimed(n, 0);
    std::vector<std::uint8_t> sends(n, 0);
    for (net::NodeId u = 0; u < n; ++u) {
      if (u == root || sent[u] || pending_children[u] > 0) continue;
      if (rx_claimed[parent[u]]) continue;
      rx_claimed[parent[u]] = 1;
      sends[u] = 1;
    }
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          if (!sends[u]) return sim::kNoSend;
          return parent[u];
        },
        sim::PlaneSrc<V>{values.data(), 1});
    m.compute_step([&](net::NodeId u) {
      if (inbox.has(u)) {
        values[u] = op.combine(values[u], *inbox.block(u));
        m.add_ops(1);
      }
    });
    for (net::NodeId u = 0; u < n; ++u) {
      if (sends[u]) {
        sent[u] = 1;
        --pending_children[parent[u]];
        --remaining;
      }
    }
  }
  sched.commit();
  return values[root];
}

}  // namespace dc::collectives
