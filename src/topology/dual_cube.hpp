// The dual-cube D_n in its standard presentation (Section 2 of the paper).
//
// A node label has 2n-1 bits. Bit 2n-2 (the leftmost) is the class
// indicator. The remaining bits are split into two (n-1)-bit fields:
//   part I  = bits 0 .. n-2       (the rightmost n-1 bits)
//   part II = bits n-1 .. 2n-3    (the middle n-1 bits)
// For a class-0 node, part I is its node ID within its cluster and part II
// is its cluster ID; for a class-1 node the roles are swapped. Each cluster
// is an (n-1)-cube spanned by the node-ID bits; every node additionally has
// exactly one cross-edge to the node differing only in the class bit. There
// are no edges between clusters of the same class, so every node has exactly
// n links and D_n has N = 2^(2n-1) nodes.
#pragma once

#include "topology/hypercube.hpp"
#include "topology/topology.hpp"

namespace dc::net {

/// Decomposed dual-cube address.
struct DualCubeAddress {
  unsigned cls;     ///< class indicator: 0 or 1
  dc::u64 cluster;  ///< cluster ID within the class (n-1 bits)
  dc::u64 node;     ///< node ID within the cluster (n-1 bits)

  friend bool operator==(const DualCubeAddress&,
                         const DualCubeAddress&) = default;
};

class DualCube final : public Topology {
 public:
  /// D_n with 2^(2n-1) nodes and n links per node. n >= 1; D_1 = K_2.
  explicit DualCube(unsigned n) : n_(n) {
    DC_REQUIRE(n >= 1, "dual-cube order must be >= 1");
    DC_REQUIRE(n <= 20, "dual-cube order too large to simulate");
  }

  std::string name() const override { return "D_" + std::to_string(n_); }
  NodeId node_count() const override { return dc::bits::pow2(2 * n_ - 1); }

  std::vector<NodeId> neighbors(NodeId u) const override;
  bool has_edge(NodeId u, NodeId v) const override;

  std::size_t neighbor_count(NodeId u) const override {
    DC_REQUIRE(u < node_count(), "node out of range");
    return n_;  // n-1 cluster links plus the cross-edge
  }

  /// The order n (links per node).
  unsigned order() const { return n_; }
  /// Number of label bits, 2n-1.
  unsigned label_bits() const { return 2 * n_ - 1; }
  /// Nodes per cluster, 2^(n-1).
  dc::u64 cluster_size() const { return dc::bits::pow2(n_ - 1); }
  /// Clusters per class, 2^(n-1).
  dc::u64 clusters_per_class() const { return dc::bits::pow2(n_ - 1); }

  /// Class indicator of `u` (bit 2n-2).
  unsigned node_class(NodeId u) const {
    DC_REQUIRE(u < node_count(), "node out of range");
    return dc::bits::get(u, 2 * n_ - 2);
  }

  /// Splits a label into (class, cluster ID, node ID).
  DualCubeAddress decode(NodeId u) const;

  /// Reassembles a label from (class, cluster ID, node ID).
  NodeId encode(const DualCubeAddress& a) const;

  /// Neighbor of `u` across cube dimension `i` of its own cluster,
  /// i in [0, n-2]. (Flips bit i of u's node ID.)
  NodeId cluster_neighbor(NodeId u, unsigned i) const;

  /// The unique cross-edge partner of `u` (flips the class bit).
  NodeId cross_neighbor(NodeId u) const {
    DC_REQUIRE(u < node_count(), "node out of range");
    return dc::bits::flip(u, 2 * n_ - 2);
  }

  /// True iff u and v lie in the same cluster.
  bool same_cluster(NodeId u, NodeId v) const;

  /// All node labels of the cluster (cls, cluster), in node-ID order.
  std::vector<NodeId> cluster_members(unsigned cls, dc::u64 cluster) const;

  /// The cluster, viewed as an (n-1)-cube over node IDs.
  Hypercube cluster_cube() const { return Hypercube(n_ - 1); }

  /// Exact distance per the paper: Hamming(u, v) when u and v share a
  /// cluster or lie in clusters of distinct classes; Hamming(u, v) + 2 when
  /// they lie in distinct clusters of the same class. (Verified against BFS
  /// in the test suite.)
  unsigned distance(NodeId u, NodeId v) const;

  /// Diameter 2n (paper, Section 2). Degenerate case: D_1 = K_2 has
  /// diameter 1 (no same-class cluster pairs exist to force the +2).
  unsigned diameter() const { return n_ == 1 ? 1 : 2 * n_; }

 private:
  unsigned n_;
};

}  // namespace dc::net
