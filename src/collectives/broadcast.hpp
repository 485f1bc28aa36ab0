// One-to-all broadcast on the dual-cube via the cluster technique — the
// collective-communication direction the paper cites (its reference [7],
// "Efficient collective communications in dual-cube") and lists as future
// application work.
//
// Schedule (root in class c, cluster K, 2n cycles total = the diameter, so
// the schedule is optimal):
//   1. binomial broadcast inside the root's cluster        (n-1 cycles)
//   2. the whole root cluster crosses over — node (c,K,j)'s partner lies in
//      class-(1-c) cluster j, so every foreign-class cluster now holds one
//      copy                                                (1 cycle)
//   3. binomial broadcast inside every foreign-class cluster (n-1 cycles)
//   4. every foreign-class node crosses over, covering all remaining
//      same-class nodes                                    (1 cycle)
#pragma once

#include <optional>
#include <vector>

#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/dual_cube.hpp"

namespace dc::collectives {

/// Broadcasts `value` from `root` to every node of D_n. Returns the
/// per-node received values (all equal to `value`). Costs 2n comm cycles.
template <typename V>
std::vector<V> dual_broadcast(sim::Machine& m, const net::DualCube& d,
                              net::NodeId root, const V& value) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(root < d.node_count(), "root out of range");
  const std::size_t n_nodes = d.node_count();
  const unsigned w = d.order() - 1;
  const auto root_addr = d.decode(root);

  std::vector<std::optional<V>> have(n_nodes);
  have[root] = value;

  // All 2n cycles are fixed by (order, root) — the holder set evolves
  // deterministically — so the broadcast compiles to one schedule per root.
  sim::ObliviousSection sched(m, "dual_broadcast", {root});
  const auto absorb = [&](const sim::BlockInbox<V>& inbox) {
    m.for_each_node([&](net::NodeId u) {
      if (inbox.has(u)) have[u] = *inbox.block(u);
    });
  };

  // Phase 1: binomial tree inside the root's cluster. After step i, the
  // holders are the nodes whose node-ID differs from the root's only in
  // bits below i.
  for (unsigned i = 0; i < w; ++i) {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u]) return sim::kNoSend;
          const auto a = d.decode(u);
          if (a.cls != root_addr.cls || a.cluster != root_addr.cluster)
            return sim::kNoSend;
          const dc::u64 rel = a.node ^ root_addr.node;
          if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
          return d.cluster_neighbor(u, i);
        },
        [&](net::NodeId) { return value; });
    absorb(inbox);
  }

  // Phase 2: the root cluster crosses into one node of every foreign
  // cluster.
  {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u]) return sim::kNoSend;
          return d.cross_neighbor(u);
        },
        [&](net::NodeId) { return value; });
    absorb(inbox);
  }

  // Phase 3: binomial tree inside every foreign-class cluster. Each such
  // cluster holds exactly one copy, at the node whose node-ID equals the
  // root's cluster ID.
  for (unsigned i = 0; i < w; ++i) {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u]) return sim::kNoSend;
          const auto a = d.decode(u);
          if (a.cls == root_addr.cls) return sim::kNoSend;
          const dc::u64 rel = a.node ^ root_addr.cluster;
          if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
          return d.cluster_neighbor(u, i);
        },
        [&](net::NodeId) { return value; });
    absorb(inbox);
  }

  // Phase 4: the whole foreign class crosses back.
  {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u]) return sim::kNoSend;
          const auto a = d.decode(u);
          if (a.cls == root_addr.cls) return sim::kNoSend;
          return d.cross_neighbor(u);
        },
        [&](net::NodeId) { return value; });
    absorb(inbox);
  }
  sched.commit();

  std::vector<V> out;
  out.reserve(n_nodes);
  for (net::NodeId u = 0; u < n_nodes; ++u) {
    DC_CHECK(have[u].has_value(), "broadcast failed to reach node " << u);
    out.push_back(*have[u]);
  }
  return out;
}

/// Binomial one-to-all broadcast on Q_d (baseline): d cycles.
template <typename V>
std::vector<V> cube_broadcast(sim::Machine& m, const net::Hypercube& q,
                              net::NodeId root, const V& value) {
  DC_REQUIRE(root < q.node_count(), "root out of range");
  const std::size_t n_nodes = q.node_count();
  // std::uint8_t (not vector<bool>): parallel per-node writes need distinct
  // memory locations.
  std::vector<std::uint8_t> have(n_nodes, 0);
  have[root] = 1;
  sim::ObliviousSection sched(m, "cube_broadcast", {root});
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto inbox = sched.exchange<V>(
        [&](net::NodeId u) -> net::NodeId {
          if (!have[u]) return sim::kNoSend;
          if ((u ^ root) >= dc::bits::pow2(i)) return sim::kNoSend;
          return q.neighbor(u, i);
        },
        [&](net::NodeId) { return value; });
    m.for_each_node([&](net::NodeId u) {
      if (inbox.has(u)) have[u] = 1;
    });
  }
  sched.commit();
  std::vector<V> out(n_nodes, value);
  for (net::NodeId u = 0; u < n_nodes; ++u)
    DC_CHECK(have[u], "broadcast failed to reach node " << u);
  return out;
}

}  // namespace dc::collectives
