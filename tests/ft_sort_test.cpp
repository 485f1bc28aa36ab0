// Fault-tolerant D_sort (core/ft_dual_sort.hpp).
//
// The guarantees under test:
//   * ft_dual_sort is correct for EVERY node fault set below the
//     connectivity bound — exhaustively on D_2 (all sets of size < 2) and
//     D_3 (all 529 sets of size < 3): the surviving keys come out sorted
//     in the leading logical labels (ascending; trailing under
//     descending), lost slots carry nullopt;
//   * a healthy (empty-plan) run is the paper's schedule exactly:
//     6n^2 - 7n + 2 comm cycles, zero rerouted messages, and the same
//     permutation dual_sort produces;
//   * link fault sets below the edge-connectivity bound lose no keys;
//   * the repair accounting (FtReport + Counters) of fixed fault runs is
//     pinned to golden values;
//   * resilient_dual_sort completes a mid-run link-flap timeline on D_4
//     via retry-with-replan with the same result as the healthy run,
//     with zero compiled-schedule replays (the acceptance scenario);
//   * a mid-run node death restarts the sort with the accumulated dead
//     set; the dead node's key is the only one lost, even if it rejoins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/dual_sort.hpp"
#include "core/ft_dual_sort.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/recovery.hpp"
#include "sim/schedule.hpp"
#include "support/rng.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace {

using dc::Rng;
using dc::net::NodeId;
using dc::net::RecursiveDualCube;
using dc::sim::FaultPlan;
using dc::sim::FaultPolicy;
using dc::sim::FaultTimeline;
using dc::sim::Machine;
using dc::sim::RecoveryDriver;

std::uint64_t healthy_sort_cycles(unsigned n) {
  return 6ull * n * n - 7ull * n + 2;
}

std::vector<std::uint32_t> shuffled_keys(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = static_cast<std::uint32_t>(i * 3 + 1);
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  return keys;
}

/// The full correctness check for one fault set: survivors sorted into
/// the leading labels (ascending) or trailing labels (descending), lost
/// slots nullopt, machine faults respected under `policy` when attached.
void expect_sort_correct(const RecursiveDualCube& r,
                         const std::vector<std::uint32_t>& keys,
                         const FaultPlan& plan, FaultPolicy policy,
                         bool attach, bool descending = false) {
  Machine m(r);
  if (attach)
    m.attach_faults(std::make_shared<FaultTimeline>(plan), policy);
  dc::sim::FtReport rep;
  const auto got = dc::core::ft_dual_sort(m, r, keys, plan, descending, &rep);
  ASSERT_EQ(got.size(), keys.size());
  // Survivors = every key except the dead labels' originals, sorted.
  std::vector<std::uint32_t> survivors;
  std::vector<std::uint8_t> is_dead(r.node_count(), 0);
  for (const NodeId u : plan.dead_nodes()) is_dead[u] = 1;
  for (NodeId u = 0; u < r.node_count(); ++u)
    if (!is_dead[u]) survivors.push_back(keys[u]);
  std::sort(survivors.begin(), survivors.end());
  if (descending) std::reverse(survivors.begin(), survivors.end());
  const std::size_t live = survivors.size();
  const std::size_t holes = keys.size() - live;
  // Ascending: survivors lead, missing (+inf) sink to the tail.
  // Descending: missing lead, survivors trail.
  const std::size_t first_live = descending ? holes : 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const bool should_hold =
        i >= first_live && i < first_live + live;
    if (should_hold) {
      ASSERT_TRUE(got[i].has_value()) << "slot " << i;
      EXPECT_EQ(*got[i], survivors[i - first_live]) << "slot " << i;
    } else {
      EXPECT_FALSE(got[i].has_value()) << "slot " << i;
    }
  }
  EXPECT_EQ(rep.base_cycles, healthy_sort_cycles(r.order()));
  if (plan.empty()) {
    EXPECT_EQ(rep.repaired, 0u);
    EXPECT_EQ(m.counters().messages_rerouted, 0u);
  }
}

TEST(FtSort, HealthyRunMatchesDualSortAtThePapersCost) {
  for (unsigned n = 2; n <= 3; ++n) {
    const RecursiveDualCube r(n);
    const auto keys = shuffled_keys(r.node_count(), 11 * n);
    for (const bool descending : {false, true}) {
      Machine reference(r);
      auto sorted = keys;
      dc::core::dual_sort(reference, r, sorted, descending);
      Machine m(r);
      const auto got =
          dc::core::ft_dual_sort(m, r, keys, FaultPlan{}, descending);
      for (NodeId u = 0; u < r.node_count(); ++u) {
        ASSERT_TRUE(got[u].has_value()) << "node " << u;
        EXPECT_EQ(*got[u], sorted[u]) << "node " << u;
      }
      EXPECT_EQ(m.counters().comm_cycles, healthy_sort_cycles(n))
          << "fault tolerance must cost nothing when nothing is broken";
      EXPECT_EQ(m.counters().comm_cycles, reference.counters().comm_cycles)
          << "6n^2-7n+2, same as the plain network";
      EXPECT_EQ(m.counters().messages_rerouted, 0u);
    }
  }
}

TEST(FtSort, ExhaustiveEveryNodeFaultSetBelowTheBoundOnD2) {
  // D_2 is 2-connected: every fault set of size < 2, from both
  // directions, attached under both policies.
  const RecursiveDualCube r(2);
  const auto keys = shuffled_keys(r.node_count(), 42);
  expect_sort_correct(r, keys, FaultPlan{}, FaultPolicy::kStrict, true);
  for (NodeId a = 0; a < r.node_count(); ++a) {
    FaultPlan plan;
    plan.kill_node(a);
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, true);
    expect_sort_correct(r, keys, plan, FaultPolicy::kDegrade, true);
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, true,
                        /*descending=*/true);
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, /*attach=*/false);
  }
}

TEST(FtSort, ExhaustiveEveryNodeFaultSetBelowTheBoundOnD3) {
  // D_3 is 3-connected: all 32 singles and all 496 pairs. Strict
  // everywhere (it is the stronger check: any fault touch aborts);
  // degrade on singles and a deterministic quarter of the pairs.
  const RecursiveDualCube r(3);
  const auto keys = shuffled_keys(r.node_count(), 7);
  expect_sort_correct(r, keys, FaultPlan{}, FaultPolicy::kStrict, true);
  for (NodeId a = 0; a < r.node_count(); ++a) {
    FaultPlan one;
    one.kill_node(a);
    expect_sort_correct(r, keys, one, FaultPolicy::kStrict, true);
    expect_sort_correct(r, keys, one, FaultPolicy::kDegrade, true);
    for (NodeId b = a + 1; b < r.node_count(); ++b) {
      FaultPlan two;
      two.kill_node(a).kill_node(b);
      expect_sort_correct(r, keys, two, FaultPolicy::kStrict, true);
      if ((a + b) % 4 == 0)
        expect_sort_correct(r, keys, two, FaultPolicy::kDegrade, true);
    }
  }
}

TEST(FtSort, LinkFaultSetsBelowTheBoundLoseNoKeys) {
  // Edge connectivity of D_n equals n: below it, every key survives and
  // the result is the fully sorted sequence. D_3: every single link and
  // a seeded sample of pairs.
  const RecursiveDualCube r(3);
  const auto keys = shuffled_keys(r.node_count(), 19);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < r.node_count(); ++u)
    for (const NodeId v : r.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  ASSERT_EQ(edges.size(), r.node_count() * r.order() / 2);
  for (const auto& [u, v] : edges) {
    FaultPlan plan;
    plan.kill_link(u, v);
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, true);
  }
  Rng rng(99);
  for (int trial = 0; trial < 24; ++trial) {
    const auto& e1 = edges[rng.below(edges.size())];
    const auto& e2 = edges[rng.below(edges.size())];
    if (e1 == e2) continue;
    FaultPlan plan;
    plan.kill_link(e1.first, e1.second);
    plan.kill_link(e2.first, e2.second);
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, true);
  }
}

TEST(FtSort, MixedNodeAndLinkFaultsOnD3) {
  const RecursiveDualCube r(3);
  const auto keys = shuffled_keys(r.node_count(), 23);
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const FaultPlan nodes = FaultPlan::random_nodes(r, 1, 800 + trial);
    FaultPlan plan = nodes;
    // Add one link between live nodes.
    Rng rng(600 + trial);
    while (true) {
      const NodeId u = rng.below(r.node_count());
      const auto nbrs = r.neighbors(u);
      const NodeId v = nbrs[rng.below(nbrs.size())];
      if (!nodes.node_dead(u) && !nodes.node_dead(v)) {
        plan.kill_link(u, v);
        break;
      }
    }
    expect_sort_correct(r, keys, plan, FaultPolicy::kStrict, true);
    expect_sort_correct(r, keys, plan, FaultPolicy::kDegrade, true);
  }
}

TEST(FtSort, RepairAccountingIsPinned) {
  // Golden FtReport and Counters of two fault runs (the network is
  // oblivious, so none of these depend on the keys). Any drift in message
  // order or detour routing changes them even when the sort stays correct.
  const auto run = [](const RecursiveDualCube& r, const FaultPlan& plan,
                      dc::sim::FtReport& rep) {
    Machine m(r);
    m.attach_faults(std::make_shared<FaultTimeline>(plan),
                    FaultPolicy::kStrict);
    const auto keys = shuffled_keys(r.node_count(), 5);
    (void)dc::core::ft_dual_sort(m, r, keys, plan, false, &rep);
    return m.counters();
  };
  {
    const RecursiveDualCube r(5);
    FaultPlan plan;
    plan.kill_node(64).kill_node(90).kill_node(210).kill_node(406);
    dc::sim::FtReport rep;
    const auto c = run(r, plan, rep);
    EXPECT_EQ(rep.base_cycles, 117u);
    EXPECT_EQ(rep.repair_cycles, 507u);
    EXPECT_EQ(rep.repaired, 468u);
    EXPECT_EQ(rep.rerouted_hops, 2376u);
    EXPECT_EQ(rep.bfs_fallbacks, 468u);
    EXPECT_EQ(c.comm_cycles, 624u);
    EXPECT_EQ(c.comp_steps, 45u);
    EXPECT_EQ(c.messages, 34144u);
    EXPECT_EQ(c.ops, 23040u);
    EXPECT_EQ(c.messages_rerouted, 2376u);
    EXPECT_EQ(c.messages_lost, 0u);
    EXPECT_EQ(c.fault_cycles, 624u);
  }
  {
    // The dimension-0 link 0-1 and the link 6-70.
    const RecursiveDualCube r(4);
    FaultPlan plan;
    plan.kill_link(0, 1).kill_link(6, 70);
    dc::sim::FtReport rep;
    const auto c = run(r, plan, rep);
    EXPECT_EQ(rep.base_cycles, healthy_sort_cycles(4));
    EXPECT_EQ(rep.repair_cycles, 298u);
    EXPECT_EQ(rep.repaired, 58u);
    EXPECT_EQ(rep.rerouted_hops, 398u);
    EXPECT_EQ(rep.bfs_fallbacks, 58u);
    EXPECT_EQ(c.comm_cycles, 368u);
    EXPECT_EQ(c.comp_steps, 28u);
    EXPECT_EQ(c.messages, 5268u);
    EXPECT_EQ(c.ops, 3584u);
    EXPECT_EQ(c.messages_rerouted, 398u);
    EXPECT_EQ(c.messages_lost, 0u);
    EXPECT_EQ(c.fault_cycles, 368u);
  }
}

// ------------------------------------------------ dynamic timelines

std::shared_ptr<const FaultTimeline> share(FaultTimeline t) {
  return std::make_shared<const FaultTimeline>(std::move(t));
}

TEST(ResilientSort, MidRunLinkFlapOnD4MatchesTheHealthyRun) {
  // The acceptance scenario: a D_4 sort (128 nodes, 70 healthy cycles)
  // with the 0-1 cross edge flapping mid-run. The strict filter aborts
  // the level in flight, the driver replans on the flapped epoch (BFS
  // detours around the dead link) and retries; the final result must be
  // byte-identical to the healthy sort, with zero compiled replays.
  const RecursiveDualCube r(4);
  const auto keys = shuffled_keys(r.node_count(), 4096);
  Machine reference(r);
  auto sorted = keys;
  dc::core::dual_sort(reference, r, sorted);

  FaultTimeline t;
  t.link_down(0, 1, 18).link_up(0, 1, 24);
  Machine m(r);
  const auto cache_before = dc::sim::ScheduleCache::instance().stats();
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = dc::core::resilient_dual_sort(drv, r, keys);
  for (NodeId u = 0; u < r.node_count(); ++u) {
    ASSERT_TRUE(got[u].has_value()) << "node " << u;
    EXPECT_EQ(*got[u], sorted[u]) << "node " << u;
  }
  // The flap genuinely interrupted the run and recovery genuinely ran.
  EXPECT_GE(drv.report().retries, 1u);
  EXPECT_EQ(drv.report().replans, drv.report().retries);
  EXPECT_EQ(drv.report().restarts, 0u) << "no node died: no restart";
  EXPECT_FALSE(drv.report().degraded);
  EXPECT_GT(m.counters().comm_cycles, healthy_sort_cycles(4))
      << "recovery costs extra cycles";
  // Zero stale-schedule replays: the machine interpreted every cycle and
  // never touched the schedule cache.
  EXPECT_EQ(m.replayed_cycles(), 0u);
  const auto cache_after = dc::sim::ScheduleCache::instance().stats();
  EXPECT_EQ(cache_after.hits, cache_before.hits);
}

TEST(ResilientSort, MidRunNodeDeathRestartsWithTheAccumulatedDeadSet) {
  const RecursiveDualCube r(3);
  const auto keys = shuffled_keys(r.node_count(), 31);
  // Node 5 dies at cycle 15 — mid-level-3 of the D_3 network — and
  // rejoins at 40. Its key is lost anyway: the restart plans it dead
  // (its memory did not survive), everyone else's keys are recovered by
  // re-running from input placement.
  FaultTimeline t;
  t.node_down(5, 15).node_up(5, 40);
  Machine m(r);
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = dc::core::resilient_dual_sort(drv, r, keys);
  EXPECT_GE(drv.report().restarts, 1u);
  std::vector<std::uint32_t> survivors;
  for (NodeId u = 0; u < r.node_count(); ++u)
    if (u != 5) survivors.push_back(keys[u]);
  std::sort(survivors.begin(), survivors.end());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "slot " << i;
    EXPECT_EQ(*got[i], survivors[i]) << "slot " << i;
  }
  EXPECT_FALSE(got.back().has_value())
      << "one key was lost: the tail slot is a hole";
}

TEST(ResilientSort, PreRunDeadNodeNeedsNoRetries) {
  const RecursiveDualCube r(3);
  const auto keys = shuffled_keys(r.node_count(), 67);
  FaultTimeline t;
  t.node_down(9, 0);
  Machine m(r);
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = dc::core::resilient_dual_sort(drv, r, keys);
  EXPECT_EQ(drv.report().retries, 0u)
      << "a fault known before planning is routed around, not retried";
  EXPECT_EQ(drv.report().restarts, 0u);
  std::vector<std::uint32_t> survivors;
  for (NodeId u = 0; u < r.node_count(); ++u)
    if (u != 9) survivors.push_back(keys[u]);
  std::sort(survivors.begin(), survivors.end());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_TRUE(got[i].has_value());
    EXPECT_EQ(*got[i], survivors[i]);
  }
}

}  // namespace
