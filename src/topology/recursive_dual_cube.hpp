// The recursive presentation of the dual-cube (Section 4 of the paper).
//
// This is the same graph as DualCube(n) up to a bit-interleaving relabeling,
// but with an edge rule chosen so that fixing the two *leftmost* bits of a
// label yields four disjoint copies of D_(n-1):
//
//   u ~ v  iff  u and v differ in exactly one bit position i, and
//     - i = 0                       (the cross / class dimension), or
//     - i is even and u_0 = 0       (class-0 cluster dimensions), or
//     - i is odd  and u_0 = 1       (class-1 cluster dimensions).
//
// Bit 0 is the class indicator; class-0 clusters are (n-1)-cubes over the
// even bits 2, 4, ..., 2n-2 and class-1 clusters are (n-1)-cubes over the
// odd bits 1, 3, ..., 2n-3. Removing dimensions 2n-2 and 2n-3 leaves
// D_(n-1) on the low 2n-3 bits, which is exactly the paper's recursive
// construction: the four subsets {00u}, {01u}, {10u}, {11u} each induce a
// D_(n-1), and the removed dimensions contribute exactly one extra link per
// node (dimension 2n-2 matches nodes with u_0 = 0 across the first of the
// two leading bits; dimension 2n-3 matches nodes with u_0 = 1 across the
// second). Base case: D_1 = K_2.
//
// The isomorphism to the standard presentation interleaves the fields:
// standard (class w, part I bits J, part II bits K) maps to the recursive
// label with w at bit 0, J_i at bit 2i+2, and K_i at bit 2i+1. Both
// directions are exposed and verified exhaustively in the tests.
//
// Algorithm 3 (dual-cube sorting) runs on this presentation: a
// compare-exchange pair at dimension j > 0 has a direct link for exactly the
// half of the nodes whose bit 0 matches the parity of j; the other half
// route in three hops u -> u^0 -> (u^0)^j -> u^j, both intermediate links
// existing by the parity rule.
#pragma once

#include "topology/dual_cube.hpp"
#include "topology/topology.hpp"

namespace dc::net {

class RecursiveDualCube final : public Topology {
 public:
  /// Recursive presentation of D_n. n >= 1.
  explicit RecursiveDualCube(unsigned n) : n_(n) {
    DC_REQUIRE(n >= 1, "dual-cube order must be >= 1");
    DC_REQUIRE(n <= 20, "dual-cube order too large to simulate");
  }

  std::string name() const override { return "D_" + std::to_string(n_) + "(rec)"; }
  NodeId node_count() const override { return dc::bits::pow2(2 * n_ - 1); }

  std::vector<NodeId> neighbors(NodeId u) const override;
  bool has_edge(NodeId u, NodeId v) const override;

  std::size_t neighbor_count(NodeId u) const override {
    DC_REQUIRE(u < node_count(), "node out of range");
    return n_;  // n of the 2n-1 dimensions are directly linked per node
  }

  /// The order n.
  unsigned order() const { return n_; }
  /// Number of label bits, 2n-1.
  unsigned label_bits() const { return 2 * n_ - 1; }

  /// True iff a node with bit 0 equal to `u0` has a direct link across
  /// dimension `i`. This is the presentation's whole edge rule.
  static bool dimension_linked(unsigned u0, unsigned i) {
    if (i == 0) return true;
    return (i % 2 == 0) == (u0 == 0);
  }

  /// Neighbor across dimension i when a direct link exists.
  /// Precondition: dimension_linked(bit0(u), i).
  NodeId neighbor(NodeId u, unsigned i) const {
    DC_REQUIRE(u < node_count() && i < label_bits(), "out of range");
    DC_REQUIRE(dimension_linked(dc::bits::get(u, 0), i),
               "no direct link at dimension " << i);
    return dc::bits::flip(u, i);
  }

  /// The 3-hop route used by Algorithm 3 when dimension i has no direct
  /// link from u: u -> u^0 -> (u^0)^i -> u^i. Returns the full path.
  std::vector<NodeId> indirect_route(NodeId u, unsigned i) const;

  /// Maps a standard-presentation label to this presentation.
  NodeId from_standard(NodeId std_label) const;

  /// Maps a label of this presentation back to the standard presentation.
  NodeId to_standard(NodeId rec_label) const;

  /// Index of the D_k sub-dual-cube containing `u` when D_n is decomposed
  /// down to level k (1 <= k <= n): the top 2(n-k) bits of the label.
  dc::u64 subcube_index(NodeId u, unsigned k) const {
    DC_REQUIRE(k >= 1 && k <= n_, "level out of range");
    return u >> (2 * k - 1);
  }

 private:
  unsigned n_;
};

}  // namespace dc::net
