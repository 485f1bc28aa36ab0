// Structural tests for the topology library: dual-cube invariants from
// Section 2 of the paper, the recursive presentation of Section 4, the
// standard<->recursive isomorphism, and the comparison networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "topology/cube_connected_cycles.hpp"
#include "topology/de_bruijn.hpp"
#include "topology/dual_cube.hpp"
#include "topology/flat_adjacency.hpp"
#include "topology/graph.hpp"
#include "topology/hypercube.hpp"
#include "topology/recursive_dual_cube.hpp"
#include "topology/shuffle_exchange.hpp"

namespace dc::net {
namespace {

// ---------------------------------------------------------------- hypercube

class HypercubeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HypercubeTest, BasicInvariants) {
  const Hypercube q(GetParam());
  EXPECT_EQ(q.node_count(), bits::pow2(GetParam()));
  validate_graph(q);
  std::size_t deg = 0;
  EXPECT_TRUE(is_regular(q, &deg));
  EXPECT_EQ(deg, GetParam());
  EXPECT_EQ(q.edge_count(), GetParam() * bits::pow2(GetParam()) / 2);
  EXPECT_TRUE(is_connected(q));
  EXPECT_TRUE(is_bipartite(q));
}

TEST_P(HypercubeTest, DiameterEqualsDimension) {
  const Hypercube q(GetParam());
  if (GetParam() == 0) return;
  const auto stats = distance_stats(q);
  EXPECT_EQ(stats.diameter, GetParam());
}

TEST_P(HypercubeTest, DistanceIsHamming) {
  const Hypercube q(GetParam());
  const auto dist = bfs_distances(q, 0);
  for (NodeId u = 0; u < q.node_count(); ++u)
    EXPECT_EQ(dist[u], bits::popcount(u));
}

INSTANTIATE_TEST_SUITE_P(Dims, HypercubeTest, ::testing::Values(0u, 1u, 2u, 3u, 5u, 8u));

// ----------------------------------------------------------------- dual-cube

class DualCubeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DualCubeTest, NodeAndEdgeCounts) {
  const unsigned n = GetParam();
  const DualCube d(n);
  EXPECT_EQ(d.node_count(), bits::pow2(2 * n - 1));
  std::size_t deg = 0;
  EXPECT_TRUE(is_regular(d, &deg));
  EXPECT_EQ(deg, n) << "every node has exactly n links (paper, Section 1)";
  EXPECT_EQ(d.edge_count(), n * d.node_count() / 2);
  validate_graph(d);
  EXPECT_TRUE(is_connected(d));
  EXPECT_TRUE(is_bipartite(d));
}

TEST_P(DualCubeTest, AddressCodecRoundTrips) {
  const DualCube d(GetParam());
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const auto a = d.decode(u);
    EXPECT_LE(a.cls, 1u);
    EXPECT_LT(a.cluster, d.clusters_per_class());
    EXPECT_LT(a.node, d.cluster_size());
    EXPECT_EQ(d.encode(a), u);
    EXPECT_EQ(a.cls, d.node_class(u));
  }
}

TEST_P(DualCubeTest, CrossEdgeFlipsOnlyClassBit) {
  const DualCube d(GetParam());
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const NodeId v = d.cross_neighbor(u);
    EXPECT_EQ(bits::hamming(u, v), 1u);
    EXPECT_NE(d.node_class(u), d.node_class(v));
    EXPECT_EQ(d.cross_neighbor(v), u) << "cross-edges form a perfect matching";
    EXPECT_TRUE(d.has_edge(u, v));
  }
}

TEST_P(DualCubeTest, CrossPartnerSwapsClusterAndNodeIds) {
  // Node j of class-0 cluster k is linked to node k of class-1 cluster j —
  // the property that steps 2-4 of Algorithm 2 rely on.
  const DualCube d(GetParam());
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const auto a = d.decode(u);
    const auto b = d.decode(d.cross_neighbor(u));
    EXPECT_EQ(b.cluster, a.node);
    EXPECT_EQ(b.node, a.cluster);
  }
}

TEST_P(DualCubeTest, ClustersAreSubcubes) {
  const unsigned n = GetParam();
  const DualCube d(n);
  for (unsigned cls = 0; cls <= 1; ++cls) {
    for (u64 c = 0; c < d.clusters_per_class(); ++c) {
      const auto members = d.cluster_members(cls, c);
      ASSERT_EQ(members.size(), d.cluster_size());
      // Within a cluster, adjacency is exactly "node IDs differ in one bit".
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = i + 1; j < members.size(); ++j) {
          const bool adjacent = d.has_edge(members[i], members[j]);
          const bool hamming1 = bits::hamming(i, j) == 1;
          EXPECT_EQ(adjacent, hamming1);
        }
      }
    }
  }
}

TEST_P(DualCubeTest, NoEdgesBetweenClustersOfSameClass) {
  const DualCube d(GetParam());
  for (NodeId u = 0; u < d.node_count(); ++u) {
    for (const NodeId v : d.neighbors(u)) {
      if (d.node_class(u) == d.node_class(v)) {
        EXPECT_TRUE(d.same_cluster(u, v))
            << "intra-class edges must stay inside a cluster";
      }
    }
  }
}

TEST_P(DualCubeTest, ClusterNeighborAgreesWithNeighbors) {
  const unsigned n = GetParam();
  if (n < 2) return;
  const DualCube d(n);
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const auto ns = d.neighbors(u);
    const std::set<NodeId> expected(ns.begin(), ns.end());
    std::set<NodeId> produced{d.cross_neighbor(u)};
    for (unsigned i = 0; i + 1 < n; ++i) {
      const NodeId v = d.cluster_neighbor(u, i);
      EXPECT_TRUE(d.same_cluster(u, v));
      produced.insert(v);
    }
    EXPECT_EQ(produced, expected);
  }
}

TEST_P(DualCubeTest, DistanceFormulaMatchesBfs) {
  // Paper, Section 2: distance = Hamming within a cluster or across
  // classes, Hamming + 2 between distinct clusters of the same class.
  const DualCube d(GetParam());
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const auto dist = bfs_distances(d, u);
    for (NodeId v = 0; v < d.node_count(); ++v)
      EXPECT_EQ(d.distance(u, v), dist[v]) << "u=" << u << " v=" << v;
  }
}

TEST_P(DualCubeTest, DiameterIsTwoN) {
  const DualCube d(GetParam());
  const auto stats = distance_stats(d);
  if (GetParam() >= 2) {
    EXPECT_EQ(stats.diameter, 2 * GetParam());
  }
  EXPECT_EQ(stats.diameter, d.diameter());
}

TEST_P(DualCubeTest, UniformDistanceProfile) {
  // Necessary condition for the paper's node-symmetry claim.
  const DualCube d(GetParam());
  EXPECT_TRUE(has_uniform_distance_profile(d));
}

INSTANTIATE_TEST_SUITE_P(Orders, DualCubeTest, ::testing::Values(1u, 2u, 3u, 4u));

TEST(DualCube, RejectsOrderZero) { EXPECT_THROW(DualCube(0), CheckError); }

// 2n - 1 wraps for n >= 2^31 (n = 2^31 + 1 would name a 2-node "D_n"), so
// both presentations must bound n itself.
TEST(DualCube, RejectsOrdersPastTwenty) {
  for (const unsigned n : {21u, 2147483649u}) {
    EXPECT_THROW(DualCube{n}, CheckError) << "n=" << n;
    EXPECT_THROW(RecursiveDualCube{n}, CheckError) << "n=" << n;
  }
  EXPECT_EQ(DualCube{20}.order(), 20u);
  EXPECT_EQ(RecursiveDualCube{20}.order(), 20u);
}

TEST(DualCube, D1IsK2) {
  const DualCube d(1);
  EXPECT_EQ(d.node_count(), 2u);
  EXPECT_TRUE(d.has_edge(0, 1));
}

TEST(DualCube, D2MatchesFigure1) {
  // Figure 1: D_2 has 8 nodes of degree 2 — four K_2 clusters joined by
  // four cross-edges into a single cycle of length 8.
  const DualCube d(2);
  EXPECT_EQ(d.node_count(), 8u);
  EXPECT_EQ(d.edge_count(), 8u);
  const auto stats = distance_stats(d);
  EXPECT_EQ(stats.diameter, 4u);  // an 8-cycle
}

TEST(DualCube, D3MatchesFigure2) {
  const DualCube d(3);
  EXPECT_EQ(d.node_count(), 32u);
  EXPECT_EQ(d.edge_count(), 48u);
  EXPECT_EQ(d.clusters_per_class(), 4u);
  EXPECT_EQ(d.cluster_size(), 4u);
  const auto stats = distance_stats(d);
  EXPECT_EQ(stats.diameter, 6u);
}

// ------------------------------------------------------ recursive presentation

class RecursiveTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RecursiveTest, BasicInvariants) {
  const unsigned n = GetParam();
  const RecursiveDualCube r(n);
  EXPECT_EQ(r.node_count(), bits::pow2(2 * n - 1));
  validate_graph(r);
  std::size_t deg = 0;
  EXPECT_TRUE(is_regular(r, &deg));
  EXPECT_EQ(deg, n);
  EXPECT_TRUE(is_connected(r));
}

TEST_P(RecursiveTest, IsomorphicToStandardPresentation) {
  const unsigned n = GetParam();
  const DualCube d(n);
  const RecursiveDualCube r(n);
  // Bijection.
  std::set<NodeId> image;
  for (NodeId u = 0; u < d.node_count(); ++u) {
    const NodeId ru = r.from_standard(u);
    EXPECT_EQ(r.to_standard(ru), u);
    image.insert(ru);
  }
  EXPECT_EQ(image.size(), d.node_count());
  // Edges map to edges, both directions.
  for (NodeId u = 0; u < d.node_count(); ++u) {
    for (NodeId v = u + 1; v < d.node_count(); ++v) {
      EXPECT_EQ(d.has_edge(u, v),
                r.has_edge(r.from_standard(u), r.from_standard(v)))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(RecursiveTest, FourCopiesOfSmallerDualCube) {
  // Paper, Section 4: fixing the two leftmost bits yields D_(n-1); edges
  // within a copy never leave it, and each node has exactly one link
  // leaving its copy.
  const unsigned n = GetParam();
  if (n < 2) return;
  const RecursiveDualCube r(n);
  const RecursiveDualCube smaller(n - 1);
  const u64 copy_size = bits::pow2(2 * n - 3);
  for (NodeId u = 0; u < r.node_count(); ++u) {
    unsigned external = 0;
    for (const NodeId v : r.neighbors(u)) {
      if (u / copy_size != v / copy_size) {
        ++external;
      } else {
        EXPECT_TRUE(smaller.has_edge(u % copy_size, v % copy_size))
            << "intra-copy edges must be D_(n-1) edges";
      }
    }
    EXPECT_EQ(external, 1u) << "exactly one recursive link per node";
  }
  // And conversely, every D_(n-1) edge appears inside every copy.
  for (NodeId u = 0; u < smaller.node_count(); ++u) {
    for (const NodeId v : smaller.neighbors(u)) {
      for (u64 copy = 0; copy < 4; ++copy) {
        EXPECT_TRUE(r.has_edge(copy * copy_size + u, copy * copy_size + v));
      }
    }
  }
}

TEST_P(RecursiveTest, RecursiveLinkMatchingRules) {
  // The two leaving dimensions: bit 2n-2 (even) pairs nodes with u_0 = 0,
  // bit 2n-3 (odd) pairs nodes with u_0 = 1.
  const unsigned n = GetParam();
  if (n < 2) return;
  const RecursiveDualCube r(n);
  const unsigned top = 2 * n - 2;
  for (NodeId u = 0; u < r.node_count(); ++u) {
    if (bits::get(u, 0) == 0) {
      EXPECT_TRUE(r.has_edge(u, bits::flip(u, top)));
      EXPECT_FALSE(r.has_edge(u, bits::flip(u, top - 1)));
    } else {
      EXPECT_FALSE(r.has_edge(u, bits::flip(u, top)));
      EXPECT_TRUE(r.has_edge(u, bits::flip(u, top - 1)));
    }
  }
}

TEST_P(RecursiveTest, IndirectRouteIsThreeValidHops) {
  const unsigned n = GetParam();
  if (n < 2) return;
  const RecursiveDualCube r(n);
  for (NodeId u = 0; u < r.node_count(); ++u) {
    for (unsigned j = 1; j < r.label_bits(); ++j) {
      if (RecursiveDualCube::dimension_linked(bits::get(u, 0), j)) {
        EXPECT_TRUE(r.has_edge(u, bits::flip(u, j)));
      } else {
        const auto path = r.indirect_route(u, j);
        ASSERT_EQ(path.size(), 4u);
        EXPECT_EQ(path.front(), u);
        EXPECT_EQ(path.back(), bits::flip(u, j));
        EXPECT_TRUE(is_valid_path(r, path));
      }
    }
  }
}

TEST_P(RecursiveTest, SubcubeIndexConsistent) {
  const unsigned n = GetParam();
  const RecursiveDualCube r(n);
  for (NodeId u = 0; u < r.node_count(); ++u) {
    EXPECT_EQ(r.subcube_index(u, n), 0u);
    if (n >= 2) {
      EXPECT_EQ(r.subcube_index(u, n - 1), u >> (2 * n - 3));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, RecursiveTest, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Recursive, DimensionLinkRule) {
  EXPECT_TRUE(RecursiveDualCube::dimension_linked(0, 0));
  EXPECT_TRUE(RecursiveDualCube::dimension_linked(1, 0));
  EXPECT_TRUE(RecursiveDualCube::dimension_linked(0, 2));
  EXPECT_FALSE(RecursiveDualCube::dimension_linked(0, 1));
  EXPECT_TRUE(RecursiveDualCube::dimension_linked(1, 1));
  EXPECT_FALSE(RecursiveDualCube::dimension_linked(1, 2));
}

// ------------------------------------------------------- comparison networks

TEST(CubeConnectedCycles, Invariants) {
  for (unsigned k : {3u, 4u, 5u}) {
    const CubeConnectedCycles c(k);
    EXPECT_EQ(c.node_count(), k * bits::pow2(k));
    validate_graph(c);
    std::size_t deg = 0;
    EXPECT_TRUE(is_regular(c, &deg));
    EXPECT_EQ(deg, 3u);
    EXPECT_TRUE(is_connected(c));
  }
}

TEST(CubeConnectedCycles, CodecRoundTrips) {
  const CubeConnectedCycles c(4);
  for (NodeId u = 0; u < c.node_count(); ++u) {
    const auto [x, p] = c.decode(u);
    EXPECT_EQ(c.encode(x, p), u);
  }
}

TEST(DeBruijn, Invariants) {
  for (unsigned d : {2u, 3u, 4u, 6u}) {
    const DeBruijn g(d);
    EXPECT_EQ(g.node_count(), bits::pow2(d));
    validate_graph(g);
    EXPECT_TRUE(is_connected(g));
    for (NodeId u = 0; u < g.node_count(); ++u) EXPECT_LE(g.degree(u), 4u);
  }
}

TEST(ShuffleExchange, Invariants) {
  for (unsigned d : {2u, 3u, 4u, 6u}) {
    const ShuffleExchange g(d);
    EXPECT_EQ(g.node_count(), bits::pow2(d));
    validate_graph(g);
    EXPECT_TRUE(is_connected(g));
    for (NodeId u = 0; u < g.node_count(); ++u) EXPECT_LE(g.degree(u), 3u);
  }
}

// --------------------------------------------------------------- graph tools

TEST(Graph, BfsOnPathlikeDualCube) {
  const DualCube d(2);  // the 8-cycle
  const auto dist = bfs_distances(d, 0);
  unsigned count_at_max = 0;
  for (const auto v : dist)
    if (v == 4) ++count_at_max;
  EXPECT_EQ(count_at_max, 1u) << "an 8-cycle has a unique antipode";
}

TEST(Graph, AverageDistanceOfQ3) {
  // Q_3: sum of distances from any node = 3*1 + 3*2 + 1*3 = 12, over 7
  // other nodes -> 12/7.
  const Hypercube q(3);
  const auto stats = distance_stats(q);
  EXPECT_NEAR(stats.average, 12.0 / 7.0, 1e-12);
}

TEST(Graph, ValidatePathChecksEdges) {
  const Hypercube q(3);
  EXPECT_TRUE(is_valid_path(q, {0, 1, 3, 7}));
  EXPECT_FALSE(is_valid_path(q, {0, 3}));
  EXPECT_FALSE(is_valid_path(q, {}));
  EXPECT_TRUE(is_valid_path(q, {5}));
  EXPECT_FALSE(is_valid_path(q, {0, 8}));
}

// ----------------------------------------------------------- flat adjacency

TEST(FlatAdjacency, MatchesVirtualInterfaceOnDualCube) {
  const DualCube d(3);
  const FlatAdjacency& adj = d.flat_adjacency();
  EXPECT_EQ(adj.node_count(), d.node_count());
  std::size_t total = 0;
  for (NodeId u = 0; u < d.node_count(); ++u) {
    auto expected = d.neighbors(u);
    std::sort(expected.begin(), expected.end());
    const auto row = adj.row(u);
    ASSERT_EQ(row.size(), expected.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), expected.begin()));
    EXPECT_EQ(adj.degree(u), expected.size());
    EXPECT_EQ(d.neighbor_count(u), expected.size());
    for (const NodeId v : expected) {
      EXPECT_TRUE(adj.has_edge(u, v));
      EXPECT_TRUE(d.has_edge(u, v));
    }
    total += expected.size();
  }
  EXPECT_EQ(adj.directed_edge_count(), total);
  EXPECT_EQ(adj.directed_edge_count(), 2 * d.edge_count());
}

TEST(FlatAdjacency, EdgeSlotsAreDenseAndUnique) {
  const Hypercube q(4);
  const FlatAdjacency& adj = q.flat_adjacency();
  std::vector<char> seen(adj.directed_edge_count(), 0);
  for (NodeId u = 0; u < q.node_count(); ++u) {
    for (const NodeId v : adj.row(u)) {
      const std::size_t s = adj.edge_slot(u, v);
      ASSERT_LT(s, adj.directed_edge_count());
      EXPECT_FALSE(seen[s]) << "slot " << s << " assigned twice";
      seen[s] = 1;
    }
  }
  for (const char used : seen) EXPECT_TRUE(used);
  EXPECT_EQ(adj.edge_slot(0, 3), FlatAdjacency::npos);
  EXPECT_FALSE(adj.has_edge(0, 3));
  EXPECT_FALSE(adj.has_edge(0, 0));
}

namespace {

// Complete graph on n vertices: the smallest way to get rows longer than
// FlatAdjacency::kLinearScanMax, forcing edge_slot onto its binary-search
// path (library topologies all have short rows).
class CompleteGraph final : public Topology {
 public:
  explicit CompleteGraph(NodeId n) : n_(n) {}
  std::string name() const override { return "K_" + std::to_string(n_); }
  NodeId node_count() const override { return n_; }
  std::vector<NodeId> neighbors(NodeId u) const override {
    std::vector<NodeId> out;
    out.reserve(static_cast<std::size_t>(n_) - 1);
    for (NodeId v = 0; v < n_; ++v)
      if (v != u) out.push_back(v);
    return out;
  }

 private:
  NodeId n_;
};

}  // namespace

TEST(FlatAdjacency, BinarySearchPathOnLongRows) {
  const CompleteGraph k(FlatAdjacency::kLinearScanMax + 8);
  const FlatAdjacency& adj = k.flat_adjacency();
  std::vector<char> seen(adj.directed_edge_count(), 0);
  for (NodeId u = 0; u < k.node_count(); ++u) {
    ASSERT_GT(adj.degree(u), FlatAdjacency::kLinearScanMax);
    EXPECT_FALSE(adj.has_edge(u, u));
    EXPECT_EQ(adj.edge_slot(u, k.node_count() + 5), FlatAdjacency::npos);
    for (NodeId v = 0; v < k.node_count(); ++v) {
      if (v == u) continue;
      const std::size_t s = adj.edge_slot(u, v);
      ASSERT_LT(s, adj.directed_edge_count());
      EXPECT_FALSE(seen[s]);
      seen[s] = 1;
    }
  }
  for (const char used : seen) EXPECT_TRUE(used);
}

TEST(FlatAdjacency, NeighborCountAgreesAcrossTopologies) {
  const Hypercube q(5);
  const RecursiveDualCube r(3);
  const CubeConnectedCycles c(3);
  const auto check = [](const Topology& t) {
    for (NodeId u = 0; u < t.node_count(); ++u) {
      EXPECT_EQ(t.neighbor_count(u), t.neighbors(u).size()) << t.name();
      EXPECT_EQ(t.degree(u), t.flat_adjacency().degree(u)) << t.name();
    }
  };
  check(q);
  check(r);
  check(c);
}

}  // namespace
}  // namespace dc::net
