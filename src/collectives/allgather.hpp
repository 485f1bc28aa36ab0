// All-gather and one-to-all personalized scatter on the dual-cube.
//
// All-gather uses the cluster technique in 2n cycles (diameter-optimal in
// step count; messages grow, which the paper's model does not charge —
// each cycle moves one message per port):
//   1. recursive-doubling all-gather inside every cluster;
//   2. cross exchange of the cluster sets — each node now also holds one
//      foreign cluster's set;
//   3. recursive-doubling all-gather of those foreign sets inside every
//      cluster — the union covers the entire foreign class;
//   4. one more cross exchange hands every node its own class's values.
//
// The gather state is kept in XOR-indexed SoA planes rather than
// origin-keyed maps: after round i of a recursive-doubling pass, slot dd of
// node u's plane holds the value originating at the cluster-mate whose
// node ID is id(u) ^ dd. A round then sends the *entire current prefix*
// (one contiguous stride of width 2^i) and the receiver appends it at
// offset 2^i — slot (2^i)+dd = value[id ^ 2^i ^ dd] — so every cycle of the
// collective is a fixed-width block exchange through ObliviousSection
// (memcpy-plane replay once the 2n-cycle schedule is cached). Origins are
// recovered arithmetically at copy-out; no per-node associative containers
// survive.
//
// Scatter sends a personalized value from the root to every node; under the
// 1-port model the root emits one packet per cycle, so N-1 cycles is a
// lower bound. We drain the packets store-and-forward along shortest
// routes.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/store_forward.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"
#include "topology/routing.hpp"

namespace dc::collectives {

/// All-gather: returns, for every node, the full vector of all N input
/// values indexed by origin node. 2n communication cycles.
template <typename V>
std::vector<std::vector<V>> dual_allgather(sim::Machine& m,
                                           const net::DualCube& d,
                                           const std::vector<V>& values) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(values.size() == d.node_count(), "one value per node required");
  const std::size_t n_nodes = d.node_count();
  const unsigned w = d.order() - 1;
  const std::size_t c = d.cluster_size();  // 2^(n-1) = cluster width

  sim::ObliviousSection sched(m, "dual_allgather", {d.order()});

  // XOR-indexed in-cluster doubling: grows each node's stride in `plane`
  // (node-major, `cap` slots per node) from width 2^0 to 2^rounds.
  const auto cluster_allgather = [&](std::vector<V>& plane, std::size_t cap,
                                     unsigned rounds) {
    for (unsigned i = 0; i < rounds; ++i) {
      const std::size_t wid = std::size_t{1} << i;
      auto inbox = sched.exchange_blocks<V>(
          wid, [&](net::NodeId u) { return d.cluster_neighbor(u, i); },
          [&](net::NodeId u, V* dst) {
            std::copy_n(plane.data() + u * cap, wid, dst);
          });
      m.for_each_node([&](net::NodeId u) {
        std::copy_n(inbox.block(u), wid, plane.data() + u * cap + wid);
      });
    }
  };

  // Phase 1: own cluster's values, one plane stride of width c per node.
  std::vector<V> own(n_nodes * c);
  m.for_each_node([&](net::NodeId u) { own[u * c] = values[u]; });
  cluster_allgather(own, c, w);

  // Phase 2: cross exchange of the cluster strides.
  std::vector<V> cls(n_nodes * c * c);  // foreign-class plane, c*c per node
  {
    auto inbox = sched.exchange_blocks<V>(
        c, [&](net::NodeId u) { return d.cross_neighbor(u); },
        [&](net::NodeId u, V* dst) {
          std::copy_n(own.data() + u * c, c, dst);
        });
    m.for_each_node([&](net::NodeId u) {
      std::copy_n(inbox.block(u), c, cls.data() + u * (c * c));
    });
  }

  // Phase 3: doubling over whole cluster-strides — block b of node u's
  // class plane ends up as the foreign stride gathered by the cluster-mate
  // with node ID id(u) ^ b.
  for (unsigned i = 0; i < w; ++i) {
    const std::size_t wid = c << i;
    auto inbox = sched.exchange_blocks<V>(
        wid, [&](net::NodeId u) { return d.cluster_neighbor(u, i); },
        [&](net::NodeId u, V* dst) {
          std::copy_n(cls.data() + u * (c * c), wid, dst);
        });
    m.for_each_node([&](net::NodeId u) {
      std::copy_n(inbox.block(u), wid, cls.data() + u * (c * c) + wid);
    });
  }

  // Origin of slot b*c+dd of node x's class plane: the dd-XOR cluster-mate
  // of the cross partner of x's own b-XOR cluster-mate.
  const auto origin_of = [&](net::NodeId x, std::size_t b, std::size_t dd) {
    const auto a = d.decode(x);
    const net::NodeId mate = d.encode({a.cls, a.cluster, a.node ^ b});
    const auto f = d.decode(d.cross_neighbor(mate));
    return d.encode({f.cls, f.cluster, f.node ^ dd});
  };

  // Phase 4: final cross exchange — u receives its cross partner's class
  // plane, which covers exactly u's own class; u's own class plane covers
  // the other. Assemble by origin.
  std::vector<std::vector<V>> out(n_nodes);
  {
    auto inbox = sched.exchange_blocks<V>(
        c * c, [&](net::NodeId u) { return d.cross_neighbor(u); },
        [&](net::NodeId u, V* dst) {
          std::copy_n(cls.data() + u * (c * c), c * c, dst);
        });
    m.for_each_node([&](net::NodeId u) {
      out[u].resize(n_nodes);
      const net::NodeId partner = d.cross_neighbor(u);
      const V* const mine = cls.data() + u * (c * c);
      const V* const recv = inbox.block(u);
      for (std::size_t b = 0; b < c; ++b) {
        for (std::size_t dd = 0; dd < c; ++dd) {
          out[u][origin_of(u, b, dd)] = mine[b * c + dd];
          out[u][origin_of(partner, b, dd)] = recv[b * c + dd];
        }
      }
    });
  }
  sched.commit();
  return out;
}

/// Recursive-doubling all-gather on Q_d (baseline): d cycles of pairwise
/// exchanges of the XOR-indexed plane prefix (slot dd of node u holds the
/// value originating at u ^ dd).
template <typename V>
std::vector<std::vector<V>> cube_allgather(sim::Machine& m,
                                           const net::Hypercube& q,
                                           const std::vector<V>& values) {
  DC_REQUIRE(values.size() == q.node_count(), "one value per node required");
  const std::size_t n_nodes = q.node_count();
  sim::ObliviousSection sched(m, "cube_allgather", {q.dimensions()});
  std::vector<V> plane(n_nodes * n_nodes);
  m.for_each_node([&](net::NodeId u) { plane[u * n_nodes] = values[u]; });
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    const std::size_t wid = std::size_t{1} << i;
    auto inbox = sched.exchange_blocks<V>(
        wid, [&](net::NodeId u) { return q.neighbor(u, i); },
        [&](net::NodeId u, V* dst) {
          std::copy_n(plane.data() + u * n_nodes, wid, dst);
        });
    m.for_each_node([&](net::NodeId u) {
      std::copy_n(inbox.block(u), wid, plane.data() + u * n_nodes + wid);
    });
  }
  sched.commit();
  std::vector<std::vector<V>> out(n_nodes);
  m.for_each_node([&](net::NodeId u) {
    out[u].resize(n_nodes);
    for (std::size_t dd = 0; dd < n_nodes; ++dd) {
      out[u][u ^ dd] = plane[u * n_nodes + dd];
    }
  });
  return out;
}

/// One-to-all personalized scatter: node i receives messages[i]. Returns
/// per-node received values and the routing report (cycles >= N-1 by the
/// root's port limit).
template <typename V>
std::pair<std::vector<V>, sim::RoutingReport> dual_scatter(
    sim::Machine& m, const net::DualCube& d, net::NodeId root,
    const std::vector<V>& messages) {
  DC_REQUIRE(root < d.node_count(), "root out of range");
  DC_REQUIRE(messages.size() == d.node_count(), "one message per node");
  std::vector<sim::Packet> packets;
  for (net::NodeId v = 0; v < d.node_count(); ++v) {
    if (v == root) continue;
    packets.push_back({v, net::route_dual_cube(d, root, v), 0, 0});
  }
  const auto report = sim::route_packet_list(m, std::move(packets));
  // route_packet_list returns only after every packet reached path.back(),
  // each hop validated by the machine; the packet addressed to v carried
  // messages[v], so after the drain node v holds exactly messages[v].
  std::vector<V> received = messages;
  return {received, report};
}

}  // namespace dc::collectives
