// Tests for the remaining extensions: the store-and-forward router, the
// all-gather and scatter collectives, the wrapped butterfly, fault-tolerant
// routing, and the dimension-exchange primitive on its own.
#include <gtest/gtest.h>

#include <numeric>
#include <unordered_set>

#include "collectives/allgather.hpp"
#include "core/dimension_exchange.hpp"
#include "sim/store_forward.hpp"
#include "support/rng.hpp"
#include "topology/butterfly.hpp"
#include "topology/fault_routing.hpp"
#include "topology/graph.hpp"
#include "topology/routing.hpp"

namespace dc {
namespace {

using net::NodeId;

// ----------------------------------------------------- dimension exchange

class DimensionExchangeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DimensionExchangeTest, EveryDimensionDeliversPartnerValue) {
  const unsigned n = GetParam();
  const net::RecursiveDualCube r(n);
  std::vector<u64> value(r.node_count());
  std::iota(value.begin(), value.end(), 0);
  for (unsigned j = 0; j < r.label_bits(); ++j) {
    sim::Machine m(r);
    const auto recv = core::dimension_exchange(m, r, j, value);
    for (NodeId u = 0; u < r.node_count(); ++u)
      EXPECT_EQ(recv[u], bits::flip(u, j)) << "j=" << j << " u=" << u;
    EXPECT_EQ(m.counters().comm_cycles, j == 0 ? 1u : 3u)
        << "paper's 3-time-unit rule at dimension " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, DimensionExchangeTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(DimensionExchange, RejectsBadDimension) {
  const net::RecursiveDualCube r(2);
  sim::Machine m(r);
  std::vector<int> v(r.node_count(), 0);
  EXPECT_THROW(core::dimension_exchange(m, r, 3, v), CheckError);
}

// ------------------------------------------------- store-and-forward router

TEST(StoreForward, IdentityPermutationIsFree) {
  const net::DualCube d(3);
  sim::Machine m(d);
  std::vector<NodeId> dest(d.node_count());
  std::iota(dest.begin(), dest.end(), 0);
  const auto report = sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
    return net::route_dual_cube(d, s, v);
  });
  EXPECT_EQ(report.cycles, 0u);
  EXPECT_EQ(report.total_hops, 0u);
  EXPECT_EQ(report.packets, d.node_count());
}

TEST(StoreForward, CrossNeighborSwapTakesOneCycle) {
  const net::DualCube d(3);
  sim::Machine m(d);
  std::vector<NodeId> dest(d.node_count());
  for (NodeId u = 0; u < d.node_count(); ++u) dest[u] = d.cross_neighbor(u);
  const auto report = sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
    return net::route_dual_cube(d, s, v);
  });
  EXPECT_EQ(report.cycles, 1u);
  EXPECT_EQ(report.max_queue, 1u);
}

TEST(StoreForward, RandomPermutationsDrainOnBothNetworks) {
  Rng rng(6);
  for (unsigned n : {2u, 3u, 4u}) {
    const net::DualCube d(n);
    std::vector<NodeId> dest(d.node_count());
    std::iota(dest.begin(), dest.end(), 0);
    for (std::size_t i = dest.size(); i-- > 1;)
      std::swap(dest[i], dest[rng.below(i + 1)]);
    sim::Machine m(d);
    const auto report = sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
      return net::route_dual_cube(d, s, v);
    });
    EXPECT_EQ(report.packets, d.node_count());
    EXPECT_GE(report.cycles, 1u);
    // Every packet walked its shortest path; latency can exceed it only
    // through queueing, never below it.
    EXPECT_GE(report.avg_latency, 0.0);
    EXPECT_EQ(m.counters().comm_cycles, report.cycles);
  }
}

TEST(StoreForward, TotalHopsEqualSumOfDistances) {
  const net::DualCube d(3);
  sim::Machine m(d);
  std::vector<NodeId> dest(d.node_count());
  for (NodeId u = 0; u < d.node_count(); ++u)
    dest[u] = d.node_count() - 1 - u;
  u64 expected_hops = 0;
  for (NodeId u = 0; u < d.node_count(); ++u)
    expected_hops += d.distance(u, dest[u]);
  const auto report = sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
    return net::route_dual_cube(d, s, v);
  });
  EXPECT_EQ(report.total_hops, expected_hops);
  EXPECT_GE(report.cycles, report.total_hops / d.node_count());
}

// ----------------------------------------------------- allgather / scatter

class AllgatherTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllgatherTest, EveryNodeEndsWithAllValues) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  m.enable_edge_load();
  std::vector<u64> values(d.node_count());
  std::iota(values.begin(), values.end(), 1000);
  const auto out = collectives::dual_allgather(m, d, values);
  for (NodeId u = 0; u < d.node_count(); ++u) EXPECT_EQ(out[u], values);
  EXPECT_EQ(m.counters().comm_cycles, 2 * n) << "diameter-step schedule";
  // Every node sends on every cycle and computes nothing; each cluster
  // dimension and the cross-edge carry two of the 2n cycles.
  EXPECT_EQ(m.counters().messages, 2 * n * d.node_count());
  EXPECT_EQ(m.counters().comp_steps, 0u);
  EXPECT_EQ(m.counters().ops, 0u);
  for (NodeId u = 0; u < d.node_count(); ++u) {
    for (const NodeId v : d.neighbors(u))
      EXPECT_EQ(m.edge_load(u, v), 2u) << u << "->" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, AllgatherTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(CubeAllgather, BaselineTakesDCyclesAndDelivers) {
  const net::Hypercube q(5);
  sim::Machine m(q);
  std::vector<u64> values(q.node_count());
  std::iota(values.begin(), values.end(), 7);
  const auto out = collectives::cube_allgather(m, q, values);
  for (NodeId u = 0; u < q.node_count(); ++u) EXPECT_EQ(out[u], values);
  EXPECT_EQ(m.counters().comm_cycles, q.dimensions());
}

TEST(CubeAllgather, DualCubePaysOnlyOneExtraCycle) {
  // 2n cycles on D_n vs 2n-1 on Q_(2n-1): the all-gather analogue of the
  // prefix comparison.
  for (unsigned n : {2u, 3u, 4u}) {
    const net::DualCube d(n);
    const net::Hypercube q(2 * n - 1);
    std::vector<u64> values(d.node_count(), 3);
    sim::Machine md(d);
    collectives::dual_allgather(md, d, values);
    sim::Machine mq(q);
    collectives::cube_allgather(mq, q, values);
    EXPECT_EQ(md.counters().comm_cycles, mq.counters().comm_cycles + 1);
  }
}

TEST(Scatter, DeliversPersonalizedMessages) {
  const net::DualCube d(3);
  sim::Machine m(d);
  std::vector<u64> messages(d.node_count());
  std::iota(messages.begin(), messages.end(), 500);
  const auto [received, report] = collectives::dual_scatter(m, d, 5, messages);
  EXPECT_EQ(received, messages);
  EXPECT_EQ(report.packets, d.node_count() - 1);
  EXPECT_GE(report.cycles, d.node_count() - 1)
      << "the root's single send port is the bottleneck";
}

// ------------------------------------------------------------- butterfly

TEST(WrappedButterfly, Invariants) {
  for (unsigned k : {3u, 4u, 5u}) {
    const net::WrappedButterfly b(k);
    EXPECT_EQ(b.node_count(), k * bits::pow2(k));
    net::validate_graph(b);
    std::size_t deg = 0;
    EXPECT_TRUE(net::is_regular(b, &deg));
    EXPECT_EQ(deg, 4u);
    EXPECT_TRUE(net::is_connected(b));
  }
}

TEST(WrappedButterfly, CodecRoundTrips) {
  const net::WrappedButterfly b(4);
  for (NodeId u = 0; u < b.node_count(); ++u) {
    const auto [level, row] = b.decode(u);
    EXPECT_EQ(b.encode(level, row), u);
  }
}

TEST(WrappedButterfly, RejectsSmallOrders) {
  EXPECT_THROW(net::WrappedButterfly(2), CheckError);
}

// ------------------------------------------------- fault-tolerant routing

TEST(FaultRouting, NoFaultsEqualsClusterRoute) {
  const net::DualCube d(3);
  Rng rng(1);
  const std::unordered_set<NodeId> none;
  for (NodeId u = 0; u < d.node_count(); u += 3) {
    for (NodeId v = 0; v < d.node_count(); v += 5) {
      const auto r = net::route_dual_cube_fault_tolerant(d, u, v, none, rng);
      EXPECT_FALSE(r.used_fallback);
      EXPECT_EQ(r.path.size() - 1, d.distance(u, v));
    }
  }
}

TEST(FaultRouting, SurvivesUpToNMinus1Faults) {
  // D_n is n-connected: any n-1 node faults leave it connected, so routing
  // must always succeed between fault-free endpoints.
  for (unsigned n : {2u, 3u, 4u}) {
    const net::DualCube d(n);
    Rng rng(n);
    for (int trial = 0; trial < 40; ++trial) {
      std::unordered_set<NodeId> faulty;
      while (faulty.size() < n - 1) faulty.insert(rng.below(d.node_count()));
      NodeId u = rng.below(d.node_count());
      NodeId v = rng.below(d.node_count());
      while (faulty.contains(u)) u = rng.below(d.node_count());
      while (faulty.contains(v)) v = rng.below(d.node_count());
      const auto r = net::route_dual_cube_fault_tolerant(d, u, v, faulty, rng);
      ASSERT_FALSE(r.path.empty())
          << "n=" << n << " must stay connected with n-1 faults";
      EXPECT_TRUE(net::is_valid_path(d, r.path));
      EXPECT_EQ(r.path.front(), u);
      EXPECT_EQ(r.path.back(), v);
      for (const NodeId w : r.path) EXPECT_FALSE(faulty.contains(w));
    }
  }
}

TEST(FaultRouting, ReportsDisconnectionHonestly) {
  // Surround a D_2 node with faults: its 2 neighbors gone isolates it.
  const net::DualCube d(2);
  Rng rng(3);
  const NodeId victim = 0;
  std::unordered_set<NodeId> faulty;
  for (const NodeId v : d.neighbors(victim)) faulty.insert(v);
  const auto r =
      net::route_dual_cube_fault_tolerant(d, victim, 7, faulty, rng);
  EXPECT_TRUE(r.path.empty());
  EXPECT_TRUE(r.used_fallback);
}

TEST(FaultRouting, RejectsFaultyEndpoints) {
  const net::DualCube d(2);
  Rng rng(3);
  EXPECT_THROW(net::route_dual_cube_fault_tolerant(d, 0, 1, {0}, rng),
               CheckError);
}

TEST(FaultRouting, NeighborhoodCutIsCertifiedByTier2OnD3AndD4) {
  // Removing a node's full neighbor set (n faults) isolates it; only the
  // tier-2 BFS can prove that, so the result must report used_fallback and
  // an empty path — in both directions.
  for (unsigned n : {3u, 4u}) {
    const net::DualCube d(n);
    Rng rng(n);
    const NodeId victim = 5;
    std::unordered_set<NodeId> cut;
    for (const NodeId v : d.neighbors(victim)) cut.insert(v);
    ASSERT_EQ(cut.size(), n);
    const NodeId far = static_cast<NodeId>(d.node_count() - 1);
    const auto out = net::route_dual_cube_fault_tolerant(d, victim, far, cut, rng);
    EXPECT_TRUE(out.path.empty()) << "n=" << n;
    EXPECT_TRUE(out.used_fallback) << "disconnection is a tier-2 verdict";
    const auto in = net::route_dual_cube_fault_tolerant(d, far, victim, cut, rng);
    EXPECT_TRUE(in.path.empty()) << "n=" << n;
    EXPECT_TRUE(in.used_fallback);
  }
}

TEST(FaultRouting, RetriesAndFallbackAreReportedConsistently) {
  // Across a seeded sweep with n-1 faults, the report must be internally
  // consistent: retries == 0 means the plain cluster route sufficed;
  // tier-1b successes consumed 1..max_retries attempts; used_fallback
  // implies every tier-1 attempt was spent first. Any returned path must
  // be a fault-free walk between the endpoints.
  constexpr unsigned kMaxRetries = 16;
  for (unsigned n : {3u, 4u}) {
    const net::DualCube d(n);
    Rng rng(17 * n);
    std::size_t direct = 0, retried = 0, fallback = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::unordered_set<NodeId> faulty;
      while (faulty.size() < n - 1) faulty.insert(rng.below(d.node_count()));
      NodeId u = rng.below(d.node_count());
      NodeId v = rng.below(d.node_count());
      while (faulty.contains(u)) u = rng.below(d.node_count());
      while (faulty.contains(v) || v == u) v = rng.below(d.node_count());
      const auto r = net::route_dual_cube_fault_tolerant(d, u, v, faulty, rng,
                                                         kMaxRetries);
      ASSERT_FALSE(r.path.empty()) << "n-1 faults cannot disconnect D_n";
      EXPECT_TRUE(net::is_valid_path(d, r.path));
      EXPECT_EQ(r.path.front(), u);
      EXPECT_EQ(r.path.back(), v);
      for (const NodeId w : r.path) EXPECT_FALSE(faulty.contains(w));
      EXPECT_LE(r.retries, kMaxRetries);
      if (r.used_fallback) {
        EXPECT_EQ(r.retries, kMaxRetries)
            << "fallback only after every tier-1 attempt";
        ++fallback;
      } else if (r.retries > 0) {
        ++retried;
      } else {
        ++direct;
      }
    }
    EXPECT_GT(direct, 0u) << "most fault sets miss the cluster route";
    EXPECT_GT(direct + retried, fallback)
        << "the cheap tier should dominate at n-1 faults";
  }
}

TEST(FaultRouting, VertexConnectivityIsNForSmallOrders) {
  // Exhaustive for n=2 (remove any 1 node) and n=3 (remove any 2):
  // the graph stays connected, certifying connectivity >= n; and removing
  // one node's full neighborhood disconnects it, certifying == n.
  for (unsigned n : {2u, 3u}) {
    const net::DualCube d(n);
    const std::size_t N = d.node_count();
    std::vector<std::vector<NodeId>> removal_sets;
    if (n == 2) {
      for (NodeId a = 0; a < N; ++a) removal_sets.push_back({a});
    } else {
      for (NodeId a = 0; a < N; ++a)
        for (NodeId b = a + 1; b < N; ++b) removal_sets.push_back({a, b});
    }
    for (const auto& removed : removal_sets) {
      std::unordered_set<NodeId> faulty(removed.begin(), removed.end());
      // BFS over the fault-free subgraph from the first fault-free node.
      NodeId start = 0;
      while (faulty.contains(start)) ++start;
      std::vector<char> seen(N, 0);
      std::vector<NodeId> stack{start};
      seen[start] = 1;
      std::size_t visited = 1;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const NodeId v : d.neighbors(u)) {
          if (seen[v] || faulty.contains(v)) continue;
          seen[v] = 1;
          ++visited;
          stack.push_back(v);
        }
      }
      ASSERT_EQ(visited, N - faulty.size())
          << "removing " << faulty.size() << " nodes must not disconnect D_"
          << n;
    }
    // Tightness: the neighborhood of any node is a cut of size n.
    std::unordered_set<NodeId> cut;
    for (const NodeId v : d.neighbors(0)) cut.insert(v);
    EXPECT_EQ(cut.size(), n);
    Rng rng(1);
    const auto r = net::route_dual_cube_fault_tolerant(
        d, 0, static_cast<NodeId>(N - 1), cut, rng);
    EXPECT_TRUE(r.path.empty()) << "neighborhood cut isolates the node";
  }
}

}  // namespace
}  // namespace dc
