// Fault injection and fault-tolerant collectives.
//
// The load-bearing guarantees tested here:
//   * faults are deterministic: same timeline, same losses, every run;
//   * a static FaultPlan is exactly a timeline whose faults are down from
//     cycle 0, forever — it snapshots back to itself at every cycle;
//   * a Machine with attached faults enforces them exactly — kStrict
//     throws FaultError with a message naming the first offender in
//     sender order, kDegrade drops and counts, and a flat prefix folds a
//     lost message as the identity;
//   * a machine with NO faults attached is bit-identical to the historical
//     healthy machine (counters equal, fault fields zero);
//   * ft_dual_broadcast and ft_dual_prefix are correct for EVERY node
//     fault set of size < n on D_2 and D_3 (exhaustive), and on seeded
//     random sweeps on D_4 — under both policies (the paper's
//     n-connectivity bound, Section 2, made executable);
//   * with an empty plan the fault-tolerant collectives cost exactly the
//     healthy schedules: 2n comm cycles, zero rerouted messages;
//   * the repair accounting (FtReport + Counters) of fixed fault runs is
//     pinned to golden values;
//   * a ProxyScope runs oblivious algorithms that have no fault-tolerant
//     fork (emulated_prefix, dual_allreduce) exactly under faults, costs
//     an interpreted run when the plan is empty, never touches the
//     schedule cache and does not nest;
//   * both fault grammars either parse a mutated spec into faults that
//     fit the topology or refuse it with a SimError — never another
//     exception, never a wrapped number.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "collectives/ft_broadcast.hpp"
#include "collectives/reduce.hpp"
#include "core/cube_prefix.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/emulated_prefix.hpp"
#include "core/ft_dual_prefix.hpp"
#include "core/ops.hpp"
#include "core/sequential.hpp"
#include "sim/fault_transport.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/schedule.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"
#include "topology/graph.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace {

using dc::CheckError;
using dc::Rng;
using dc::core::Concat;
using dc::core::Plus;
using dc::net::DualCube;
using dc::net::NodeId;
using dc::net::RecursiveDualCube;
using dc::sim::FaultError;
using dc::sim::FaultPlan;
using dc::sim::FaultPolicy;
using dc::sim::FaultTimeline;
using dc::sim::FaultyTopology;
using dc::sim::Machine;

constexpr std::uint64_t kForever = FaultTimeline::kForever;

template <typename Fn>
void expect_sim_error(Fn&& fn, const std::string& msg) {
  try {
    fn();
    ADD_FAILURE() << "expected SimError: " << msg;
  } catch (const dc::sim::SimError& e) {
    EXPECT_EQ(std::string(e.what()), msg);
  }
}

/// A timeline that drops over every cycle at `permille`, seeded `seed`.
FaultTimeline noisy_timeline(std::uint64_t seed, unsigned permille) {
  FaultTimeline t(seed);
  t.drop_window(permille, 0, kForever);
  return t;
}

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlan, KillsAreIdempotent) {
  FaultPlan plan;
  plan.kill_node(3).kill_node(3).kill_link(0, 1).kill_link(1, 0);
  EXPECT_TRUE(plan.node_dead(3));
  EXPECT_FALSE(plan.node_dead(4));
  EXPECT_TRUE(plan.link_dead(0, 1));
  EXPECT_TRUE(plan.link_dead(1, 0));  // orientation-free
  EXPECT_FALSE(plan.link_dead(0, 2));
  EXPECT_EQ(plan.dead_nodes(), std::vector<NodeId>{3});
  EXPECT_EQ(plan.node_fault_count(), 1u);
  EXPECT_EQ(plan.link_fault_count(), 1u);
}

TEST(FaultTimelineTest, KillsAreTimed) {
  // A fault that goes down at cycle c spares cycles 0..c-1.
  FaultTimeline t;
  t.node_down(3, 2).link_down(0, 1, 4);
  EXPECT_FALSE(t.node_dead(3, 1));
  EXPECT_TRUE(t.node_dead(3, 2));
  EXPECT_TRUE(t.node_dead(3, 100));
  EXPECT_FALSE(t.node_dead(4, 100));
  EXPECT_FALSE(t.link_dead(1, 0, 3));
  EXPECT_TRUE(t.link_dead(1, 0, 4));  // orientation-free
  EXPECT_EQ(t.dead_nodes(100), std::vector<NodeId>{3});
  EXPECT_EQ(t.node_fault_count(), 1u);
  EXPECT_EQ(t.link_fault_count(), 1u);
  EXPECT_FALSE(t.any_active(1));
  EXPECT_TRUE(t.any_active(2));
  // A node that is down cannot go down again at another cycle.
  expect_sim_error([] { FaultTimeline().node_down(3, 5).node_down(3, 2); },
                   "node 3 is already down at cycle 2");
}

TEST(FaultTimelineTest, TransientDropsAreAPureFunctionOfSeedCycleSender) {
  const FaultTimeline a = noisy_timeline(42, 250);
  const FaultTimeline b = noisy_timeline(42, 250);
  const FaultTimeline c = noisy_timeline(43, 250);
  std::size_t drops = 0, differs = 0;
  for (std::uint64_t cycle = 0; cycle < 64; ++cycle) {
    for (NodeId u = 0; u < 64; ++u) {
      EXPECT_EQ(a.drops_message(cycle, u), b.drops_message(cycle, u));
      drops += a.drops_message(cycle, u);
      differs += a.drops_message(cycle, u) != c.drops_message(cycle, u);
    }
  }
  // ~25% of 4096 decisions; loose bounds, deterministic given the seed.
  EXPECT_GT(drops, 4096 / 8);
  EXPECT_LT(drops, 4096 / 2);
  EXPECT_GT(differs, 0u) << "different seeds must lose different messages";
  EXPECT_THROW(FaultTimeline().drop_window(1001, 0, kForever), CheckError);
}

TEST(FaultTimelineTest, StaticPlanIsAFromStartTimeline) {
  FaultPlan plan;
  plan.kill_node(3).kill_node(6).kill_link(0, 1).kill_link(5, 4);
  const FaultTimeline t(plan);
  EXPECT_EQ(t.epoch_starts(), std::vector<std::uint64_t>{0});
  EXPECT_EQ(t.max_drop_permille(), 0u);
  EXPECT_EQ(t.max_concurrent_node_faults(), 2u);
  for (const std::uint64_t c : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{7}, std::uint64_t{1000},
                                kForever - 1}) {
    const FaultPlan snap = t.snapshot(c);
    EXPECT_EQ(snap.dead_nodes(), plan.dead_nodes()) << "cycle " << c;
    EXPECT_EQ(snap.dead_links(), plan.dead_links()) << "cycle " << c;
    EXPECT_TRUE(t.any_active(c)) << "cycle " << c;
  }
  // The empty plan is the empty timeline: nothing is ever live.
  const FaultTimeline none{FaultPlan{}};
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.snapshot(0).empty());
  EXPECT_FALSE(none.any_active(0));
}

TEST(FaultPlan, RandomNodesIsSeededAndRespectsExclusions) {
  const DualCube d(3);
  const FaultPlan a = FaultPlan::random_nodes(d, 5, 7, {0, 1});
  const FaultPlan b = FaultPlan::random_nodes(d, 5, 7, {0, 1});
  EXPECT_EQ(a.dead_nodes(), b.dead_nodes());
  EXPECT_EQ(a.node_fault_count(), 5u);
  EXPECT_FALSE(a.node_dead(0));
  EXPECT_FALSE(a.node_dead(1));
  const FaultPlan c = FaultPlan::random_nodes(d, 5, 8, {0, 1});
  EXPECT_NE(a.dead_nodes(), c.dead_nodes());
}

// -------------------------------------------------------- FaultyTopology

TEST(FaultyTopologyTest, FiltersDeadNodesAndLinksButKeepsNameAndCount) {
  const DualCube d(2);
  FaultPlan plan;
  plan.kill_node(3).kill_link(0, 1);
  const FaultyTopology f(d, plan);
  EXPECT_EQ(f.name(), d.name());
  EXPECT_EQ(f.node_count(), d.node_count());
  EXPECT_TRUE(f.neighbors(3).empty());
  EXPECT_FALSE(f.has_edge(0, 1));
  EXPECT_TRUE(d.has_edge(0, 1));
  for (const NodeId v : f.neighbors(0)) EXPECT_NE(v, 3);
  EXPECT_FALSE(f.node_alive(3));
  EXPECT_TRUE(f.node_alive(0));
  EXPECT_EQ(f.dead_node_count(), 1u);
}

TEST(FaultyTopologyTest, FingerprintDiffersFromHealthyBase) {
  const DualCube d(3);
  FaultPlan plan;
  plan.kill_node(5);
  const FaultyTopology f(d, plan);
  EXPECT_NE(f.flat_adjacency().fingerprint(), d.flat_adjacency().fingerprint())
      << "the adjacency fingerprint is what keeps cached schedules away "
         "from faulted graphs";
  // Different fault sets → different fingerprints too.
  FaultPlan other;
  other.kill_node(6);
  const FaultyTopology g(d, other);
  EXPECT_NE(f.flat_adjacency().fingerprint(),
            g.flat_adjacency().fingerprint());
}

TEST(FaultyTopologyTest, RejectsOutOfRangeFaults) {
  const DualCube d(2);
  FaultPlan plan;
  plan.kill_node(99);
  EXPECT_THROW(FaultyTopology(d, plan), CheckError);
}

// ----------------------------------------------------- Machine with plan

TEST(MachineFaults, StrictPolicyThrowsExactMessages) {
  const DualCube d(2);  // nodes 0..7; 0-1 is a cluster link, 0-4 the cross
  const auto run_one = [&](const FaultPlan& plan, NodeId from, NodeId to) {
    Machine m(d);
    m.attach_faults(std::make_shared<FaultTimeline>(plan),
                    FaultPolicy::kStrict);
    m.comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
      if (u != from) return std::nullopt;
      return dc::sim::Send<int>{to, 1};
    });
  };
  FaultPlan dead_sender;
  dead_sender.kill_node(0);
  try {
    run_one(dead_sender, 0, 1);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(), "faulty node 0 cannot send (cycle 0)");
  }
  FaultPlan dead_receiver;
  dead_receiver.kill_node(1);
  try {
    run_one(dead_receiver, 0, 1);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent to faulty node 1 (cycle 0)");
  }
  FaultPlan dead_link;
  dead_link.kill_link(0, 1);
  try {
    run_one(dead_link, 0, 1);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent over faulty link to 1 (cycle 0)");
  }
}

TEST(MachineFaults, DegradePolicyDropsAndCounts) {
  const DualCube d(2);
  Machine m(d);
  FaultPlan plan;
  plan.kill_node(1);
  m.attach_faults(std::make_shared<FaultTimeline>(plan),
                  FaultPolicy::kDegrade);
  // 0 -> 1 dies; 4 -> 0 (the cross-edge) survives.
  auto inbox = m.comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
    if (u == 0) return dc::sim::Send<int>{1, 10};
    if (u == 4) return dc::sim::Send<int>{0, 20};
    return std::nullopt;
  });
  EXPECT_FALSE(inbox[1].has_value());
  ASSERT_TRUE(inbox[0].has_value());
  EXPECT_EQ(*inbox[0], 20);
  const auto c = m.counters();
  EXPECT_EQ(c.messages_lost, 1u);
  EXPECT_EQ(c.messages, 1u);
  EXPECT_EQ(c.fault_cycles, 1u);
}

TEST(MachineFaults, TimedFaultSparesEarlierCycles) {
  const DualCube d(2);
  Machine m(d);
  auto t = std::make_shared<FaultTimeline>();
  t->node_down(1, /*at=*/2);
  m.attach_faults(t, FaultPolicy::kDegrade);
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto inbox =
        m.comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
          if (u != 0) return std::nullopt;
          return dc::sim::Send<int>{1, cycle};
        });
    EXPECT_EQ(inbox[1].has_value(), cycle < 2) << "cycle " << cycle;
  }
  const auto c = m.counters();
  EXPECT_EQ(c.messages_lost, 2u);
  EXPECT_EQ(c.fault_cycles, 2u);
}

TEST(MachineFaults, TransientDropsMatchThePlanExactly) {
  const DualCube d(2);
  Machine m(d);
  const auto faults = std::make_shared<FaultTimeline>(noisy_timeline(9, 400));
  m.attach_faults(faults, FaultPolicy::kStrict);  // drops apply under strict
  std::uint64_t lost = 0;
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    auto inbox =
        m.comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
          if (u != 0) return std::nullopt;
          return dc::sim::Send<int>{1, 1};
        });
    const bool dropped = faults->drops_message(cycle, 0);
    EXPECT_EQ(inbox[1].has_value(), !dropped) << "cycle " << cycle;
    lost += dropped;
  }
  EXPECT_GT(lost, 0u) << "seed 9 at 40% must drop something in 32 cycles";
  EXPECT_EQ(m.counters().messages_lost, lost);
}

TEST(MachineFaults, NoPlanMeansHealthyCountersAndCompiledPath) {
  const DualCube d(2);
  Machine healthy(d);
  Machine carrier(d);
  carrier.attach_faults(std::make_shared<FaultTimeline>(),
                        FaultPolicy::kDegrade);
  carrier.clear_faults();
  for (Machine* m : {&healthy, &carrier}) {
    m->comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
      return dc::sim::Send<int>{d.cross_neighbor(u), int(u)};
    });
  }
  EXPECT_EQ(healthy.counters(), carrier.counters());
  EXPECT_EQ(healthy.counters().messages_lost, 0u);
  EXPECT_EQ(healthy.counters().fault_cycles, 0u);
  EXPECT_EQ(healthy.schedule_path(), carrier.schedule_path());
}

TEST(MachineFaults, AttachedPlanForcesInterpretedPathAndRefusesReplay) {
  const DualCube d(2);
  Machine m(d);
  m.set_schedule_path(dc::sim::SchedulePath::kCompiled);
  m.attach_faults(std::make_shared<FaultTimeline>(FaultPlan().kill_node(7)));
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kInterpreted);
  dc::sim::ScheduleCycle cyc;
  cyc.recv_from.assign(d.node_count(), dc::sim::kNoSender);
  cyc.recv_slot.assign(d.node_count(), dc::sim::kNoEdgeSlot);
  EXPECT_THROW(m.comm_cycle_scheduled_blocks<int>(
                   cyc, 1, [](NodeId, int* dst) { *dst = 0; }),
               CheckError);
  m.clear_faults();
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kCompiled);
}

TEST(MachineFaults, AttachedPlanRefusesBlockReplay) {
  const DualCube d(2);
  Machine m(d);
  m.set_schedule_path(dc::sim::SchedulePath::kCompiled);
  m.attach_faults(std::make_shared<FaultTimeline>(FaultPlan().kill_node(7)));
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kInterpreted);
  dc::sim::ScheduleCycle cyc;
  cyc.recv_from.assign(d.node_count(), dc::sim::kNoSender);
  cyc.recv_slot.assign(d.node_count(), dc::sim::kNoEdgeSlot);
  EXPECT_THROW(m.comm_cycle_scheduled_blocks<int>(
                   cyc, 2, [](NodeId, int* dst) { dst[0] = dst[1] = 0; }),
               CheckError);
  m.clear_faults();
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kCompiled);
}

// One token "i;" per index, so a Concat prefix names the inputs it holds.
std::vector<std::string> index_tokens(std::size_t n) {
  std::vector<std::string> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::to_string(i) + ";";
  return v;
}

// A lost message folds as the identity, so every index holds a fold of
// some of the inputs before it (and, inclusive, its own last), each once
// and in index order: a stale row of a pooled plane would repeat an input
// or put a later one first. Reports the first index that breaks the rule.
void expect_ordered_subfolds(const std::vector<std::string>& out,
                             bool inclusive) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<std::size_t> held;
    for (std::size_t at = 0; at < out[i].size();) {
      const std::size_t end = out[i].find(';', at);
      held.push_back(std::stoul(out[i].substr(at, end - at)));
      at = end + 1;
    }
    const bool ordered = std::adjacent_find(held.begin(), held.end(),
                                            std::greater_equal<>()) ==
                         held.end();
    const bool ends_right = inclusive ? !held.empty() && held.back() == i
                                      : held.empty() || held.back() < i;
    if (!ordered || !ends_right) {
      ADD_FAILURE() << "index " << i << " holds " << out[i];
      return;
    }
  }
}

TEST(MachineFaults, LostMessagesFoldAsIdentityInTheFlatPrefix) {
  const Concat op;
  for (const unsigned permille : {200u, 500u, 900u}) {
    const auto faults =
        std::make_shared<FaultTimeline>(noisy_timeline(41, permille));
    for (const bool inclusive : {true, false}) {
      for (unsigned n = 2; n <= 4; ++n) {
        SCOPED_TRACE(testing::Message() << "D_" << n << " drop " << permille
                                        << "/1000 inclusive=" << inclusive);
        const DualCube d(n);
        Machine m(d);
        m.attach_faults(faults, FaultPolicy::kDegrade);
        expect_ordered_subfolds(
            dc::core::dual_prefix(m, d, op, index_tokens(d.node_count()), {},
                                  inclusive),
            inclusive);
        EXPECT_GT(m.counters().messages_lost, 0u);
      }
      SCOPED_TRACE(testing::Message() << "Q_5 drop " << permille
                                      << "/1000 inclusive=" << inclusive);
      const dc::net::Hypercube q(5);
      Machine m(q);
      m.attach_faults(faults, FaultPolicy::kDegrade);
      expect_ordered_subfolds(
          dc::core::cube_prefix(m, q, op, index_tokens(q.node_count()),
                                inclusive)
              .prefix,
          inclusive);
      EXPECT_GT(m.counters().messages_lost, 0u);
    }
  }
}

// The emulated prefix relays every dimension but 0 over three cycles: a
// lost cycle-1 gather leaves an earlier block in the relay's row, which
// cycles 2 and 3 would deliver as fresh. Every lost link of the relay
// must fold as the identity instead.
TEST(MachineFaults, LostRelayedBlocksFoldAsIdentityInTheEmulatedPrefix) {
  const Concat op;
  for (const unsigned permille : {200u, 500u, 900u}) {
    const auto faults =
        std::make_shared<FaultTimeline>(noisy_timeline(41, permille));
    for (unsigned n = 2; n <= 4; ++n) {
      SCOPED_TRACE(testing::Message() << "RD_" << n << " drop " << permille
                                      << "/1000");
      const RecursiveDualCube r(n);
      Machine m(r);
      m.attach_faults(faults, FaultPolicy::kDegrade);
      expect_ordered_subfolds(
          dc::core::emulated_prefix(m, r, op, index_tokens(r.node_count())),
          /*inclusive=*/true);
      EXPECT_GT(m.counters().messages_lost, 0u);
    }
  }
}

// ------------------------------------------------------ fault spec parse

TEST(FaultSpec, ParsesNodesAndRandomForms) {
  const DualCube d(3);
  const FaultPlan nodes = dc::sim::parse_fault_spec("nodes:1,5,9", d);
  EXPECT_EQ(nodes.dead_nodes(), (std::vector<NodeId>{1, 5, 9}));
  const FaultPlan r1 = dc::sim::parse_fault_spec("random:4,77", d);
  const FaultPlan r2 = dc::sim::parse_fault_spec("random:4,77", d);
  EXPECT_EQ(r1.dead_nodes(), r2.dead_nodes());
  EXPECT_EQ(r1.node_fault_count(), 4u);
  const FaultPlan r3 = dc::sim::parse_fault_spec("random:4", d, /*seed=*/3);
  EXPECT_EQ(r3.node_fault_count(), 4u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const DualCube d(2);
  for (const char* bad : {"", "nodes", "nodes:", "nodes:x", "nodes:99",
                          "random:1,2,3", "random:9", "bogus:1"}) {
    EXPECT_THROW(dc::sim::parse_fault_spec(bad, d), CheckError) << bad;
  }
}

// --------------------------------------------- fault-tolerant broadcast

void expect_broadcast_correct(const DualCube& d, NodeId root,
                              const FaultPlan& plan, FaultPolicy policy,
                              bool attach) {
  Machine m(d);
  if (attach) m.attach_faults(std::make_shared<FaultTimeline>(plan), policy);
  dc::sim::FtReport rep;
  const auto got =
      dc::collectives::ft_dual_broadcast<int>(m, d, root, 42, plan, &rep);
  for (NodeId u = 0; u < d.node_count(); ++u) {
    if (plan.node_dead(u)) {
      EXPECT_FALSE(got[u].has_value());
    } else {
      ASSERT_TRUE(got[u].has_value()) << "live node " << u << " missed";
      EXPECT_EQ(*got[u], 42);
    }
  }
  EXPECT_EQ(rep.base_cycles, 2u * d.order());
  if (plan.empty()) {
    EXPECT_EQ(rep.repaired, 0u);
    EXPECT_EQ(m.counters().messages_rerouted, 0u);
  }
}

TEST(FtBroadcast, ExhaustiveEveryFaultSetBelowNOnD2AndD3) {
  // n-connectivity made executable: EVERY node fault set of size < n, both
  // policies. D_2: sizes 0..1 from every root. D_3: sizes 0..2, root 0.
  {
    const DualCube d(2);
    for (NodeId root = 0; root < d.node_count(); ++root) {
      expect_broadcast_correct(d, root, FaultPlan{}, FaultPolicy::kStrict,
                               true);
      for (NodeId a = 0; a < d.node_count(); ++a) {
        if (a == root) continue;
        FaultPlan plan;
        plan.kill_node(a);
        expect_broadcast_correct(d, root, plan, FaultPolicy::kStrict, true);
        expect_broadcast_correct(d, root, plan, FaultPolicy::kDegrade, true);
      }
    }
  }
  {
    const DualCube d(3);
    const NodeId root = 0;
    expect_broadcast_correct(d, root, FaultPlan{}, FaultPolicy::kStrict, true);
    for (NodeId a = 1; a < d.node_count(); ++a) {
      FaultPlan one;
      one.kill_node(a);
      expect_broadcast_correct(d, root, one, FaultPolicy::kStrict, true);
      for (NodeId b = a + 1; b < d.node_count(); ++b) {
        FaultPlan two;
        two.kill_node(a).kill_node(b);
        expect_broadcast_correct(d, root, two, FaultPolicy::kStrict, true);
        expect_broadcast_correct(d, root, two, FaultPolicy::kDegrade, true);
      }
    }
  }
}

TEST(FtBroadcast, SeededSweepOnD4) {
  const DualCube d(4);
  Rng rng(2024);
  for (dc::u64 trial = 0; trial < 12; ++trial) {
    const NodeId root = rng.below(d.node_count());
    const std::size_t k = 1 + rng.below(d.order() - 1);  // 1..n-1 faults
    const FaultPlan plan =
        FaultPlan::random_nodes(d, k, 1000 + trial, {root});
    const FaultPolicy policy =
        trial % 2 ? FaultPolicy::kDegrade : FaultPolicy::kStrict;
    expect_broadcast_correct(d, root, plan, policy, /*attach=*/true);
    expect_broadcast_correct(d, root, plan, policy, /*attach=*/false);
  }
}

TEST(FtBroadcast, FaultyRootAndDisconnectionAreReported) {
  const DualCube d(2);
  Machine m(d);
  FaultPlan root_dead;
  root_dead.kill_node(0);
  EXPECT_THROW(
      dc::collectives::ft_dual_broadcast<int>(m, d, 0, 1, root_dead),
      FaultError);
  // n faults CAN disconnect: node 7's full neighborhood.
  FaultPlan cut;
  for (const NodeId v : d.neighbors(7)) cut.kill_node(v);
  Machine m2(d);
  EXPECT_THROW(dc::collectives::ft_dual_broadcast<int>(m2, d, 0, 1, cut),
               FaultError);
}

TEST(FtBroadcast, HealthyRunCostsTheOptimalSchedule) {
  const DualCube d(3);
  Machine m(d);
  dc::sim::FtReport rep;
  dc::collectives::ft_dual_broadcast<int>(m, d, 5, 7, FaultPlan{}, &rep);
  EXPECT_EQ(m.counters().comm_cycles, 2u * d.order());
  EXPECT_EQ(m.counters().messages_rerouted, 0u);
  EXPECT_EQ(rep.repair_cycles, 0u);
}

TEST(FtBroadcast, RepairTrafficIsCountedAsRerouted) {
  const DualCube d(3);
  Machine m(d);
  // Kill a cross-partner of the root's cluster: its foreign cluster is
  // then reachable only by repair.
  const NodeId root = 0;
  FaultPlan plan;
  plan.kill_node(d.cross_neighbor(1));
  m.attach_faults(std::make_shared<FaultTimeline>(plan), FaultPolicy::kStrict);
  dc::sim::FtReport rep;
  const auto got =
      dc::collectives::ft_dual_broadcast<int>(m, d, root, 3, plan, &rep);
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_GT(rep.repair_cycles, 0u);
  EXPECT_EQ(m.counters().messages_rerouted, rep.rerouted_hops);
  for (NodeId u = 0; u < d.node_count(); ++u) {
    if (u != d.cross_neighbor(1)) {
      EXPECT_TRUE(got[u].has_value());
    }
  }
}

// ------------------------------------------------ fault-tolerant prefix

template <typename M>
std::vector<typename M::value_type> masked_scan(
    const M& op, const std::vector<typename M::value_type>& data,
    const std::vector<bool>& index_dead, bool inclusive) {
  std::vector<typename M::value_type> out(data.size(), op.identity());
  auto acc = op.identity();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto v = index_dead[i] ? op.identity() : data[i];
    if (inclusive) {
      acc = op.combine(acc, v);
      out[i] = acc;
    } else {
      out[i] = acc;
      acc = op.combine(acc, v);
    }
  }
  return out;
}

template <typename M>
void expect_prefix_correct(const DualCube& d, const M& op,
                           const std::vector<typename M::value_type>& data,
                           const FaultPlan& plan, FaultPolicy policy,
                           bool attach, bool inclusive = true) {
  Machine m(d);
  if (attach) m.attach_faults(std::make_shared<FaultTimeline>(plan), policy);
  dc::sim::FtReport rep;
  const auto got = dc::core::ft_dual_prefix(m, d, op, data, plan, inclusive,
                                            &rep);
  std::vector<bool> index_dead(d.node_count(), false);
  for (const NodeId u : plan.dead_nodes())
    index_dead[dc::core::dual_prefix_index_of_node(d, u)] = true;
  const auto expected = masked_scan(op, data, index_dead, inclusive);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (index_dead[i]) {
      EXPECT_FALSE(got[i].has_value());
    } else {
      ASSERT_TRUE(got[i].has_value()) << "index " << i;
      EXPECT_EQ(*got[i], expected[i]) << "index " << i;
    }
  }
  EXPECT_EQ(rep.base_cycles, 2u * d.order());
}

std::vector<dc::u64> iota_data(std::size_t n) {
  std::vector<dc::u64> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = i + 1;
  return data;
}

TEST(FtPrefix, ExhaustiveEveryFaultSetBelowNOnD2AndD3) {
  const Plus<dc::u64> op;
  {
    const DualCube d(2);
    const auto data = iota_data(d.node_count());
    expect_prefix_correct(d, op, data, FaultPlan{}, FaultPolicy::kStrict,
                          true);
    for (NodeId a = 0; a < d.node_count(); ++a) {
      FaultPlan plan;
      plan.kill_node(a);
      expect_prefix_correct(d, op, data, plan, FaultPolicy::kStrict, true);
      expect_prefix_correct(d, op, data, plan, FaultPolicy::kDegrade, true);
      expect_prefix_correct(d, op, data, plan, FaultPolicy::kStrict, true,
                            /*inclusive=*/false);
    }
  }
  {
    const DualCube d(3);
    const auto data = iota_data(d.node_count());
    expect_prefix_correct(d, op, data, FaultPlan{}, FaultPolicy::kStrict,
                          true);
    for (NodeId a = 0; a < d.node_count(); ++a) {
      FaultPlan one;
      one.kill_node(a);
      expect_prefix_correct(d, op, data, one, FaultPolicy::kStrict, true);
      for (NodeId b = a + 1; b < d.node_count(); ++b) {
        FaultPlan two;
        two.kill_node(a).kill_node(b);
        expect_prefix_correct(d, op, data, two, FaultPolicy::kStrict, true);
        expect_prefix_correct(d, op, data, two, FaultPolicy::kDegrade, true);
      }
    }
  }
}

TEST(FtPrefix, NonCommutativeMonoidKeepsIndexOrderUnderFaults) {
  const DualCube d(3);
  const Concat op;
  std::vector<std::string> data(d.node_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::string(1, static_cast<char>('a' + (i % 26)));
  for (dc::u64 trial = 0; trial < 6; ++trial) {
    const FaultPlan plan =
        FaultPlan::random_nodes(d, 1 + trial % 2, 300 + trial);
    expect_prefix_correct(d, op, data, plan, FaultPolicy::kStrict, true);
  }
}

TEST(FtPrefix, SeededSweepOnD4) {
  const DualCube d(4);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  for (dc::u64 trial = 0; trial < 8; ++trial) {
    const std::size_t k = 1 + static_cast<std::size_t>(trial) % (d.order() - 1);
    const FaultPlan plan = FaultPlan::random_nodes(d, k, 500 + trial);
    const FaultPolicy policy =
        trial % 2 ? FaultPolicy::kDegrade : FaultPolicy::kStrict;
    expect_prefix_correct(d, op, data, plan, policy, /*attach=*/true);
    expect_prefix_correct(d, op, data, plan, policy, /*attach=*/false);
  }
}

TEST(FtPrefix, HealthyRunMatchesAlgorithm2Exactly) {
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  Machine healthy(d);
  healthy.set_schedule_path(dc::sim::SchedulePath::kInterpreted);
  const auto reference = dc::core::dual_prefix(healthy, d, op, data);
  Machine m(d);
  const auto got = dc::core::ft_dual_prefix(m, d, op, data, FaultPlan{});
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(got[i].has_value());
    EXPECT_EQ(*got[i], reference[i]);
  }
  // Same cost as the healthy schedule: 2n comm cycles, 2n comp steps,
  // nothing rerouted.
  EXPECT_EQ(m.counters().comm_cycles, 2u * d.order());
  EXPECT_EQ(m.counters().comp_steps, 2u * d.order());
  EXPECT_EQ(m.counters().messages_rerouted, 0u);
  EXPECT_EQ(m.counters().ops, healthy.counters().ops);
}

TEST(FtPrefix, LinkFaultsAreRoutedAround) {
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  FaultPlan plan;
  plan.kill_link(0, d.cross_neighbor(0)).kill_link(0, d.cluster_neighbor(0, 0));
  Machine m(d);
  m.attach_faults(std::make_shared<FaultTimeline>(plan), FaultPolicy::kStrict);
  dc::sim::FtReport rep;
  const auto got =
      dc::core::ft_dual_prefix(m, d, op, data, plan, true, &rep);
  const auto expected =
      masked_scan(op, data, std::vector<bool>(d.node_count(), false), true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(got[i].has_value());
    EXPECT_EQ(*got[i], expected[i]) << "index " << i;
  }
  EXPECT_GT(rep.rerouted_hops, 0u);
  EXPECT_EQ(m.counters().messages_rerouted, rep.rerouted_hops);
}

TEST(FtPrefix, RepairAccountingIsPinned) {
  // Golden FtReport and Counters of two fault runs. Any drift in message
  // order, Rng consumption or detour routing changes these numbers even
  // when every result stays correct.
  const DualCube d(4);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  const auto run = [&](const FaultPlan& plan, dc::sim::FtReport& rep) {
    Machine m(d);
    m.attach_faults(std::make_shared<FaultTimeline>(plan),
                    FaultPolicy::kStrict);
    (void)dc::core::ft_dual_prefix(m, d, op, data, plan, true, &rep);
    return m.counters();
  };
  {
    FaultPlan plan;
    plan.kill_node(5).kill_node(77);
    dc::sim::FtReport rep;
    const auto c = run(plan, rep);
    EXPECT_EQ(rep.base_cycles, 8u);
    EXPECT_EQ(rep.repair_cycles, 79u);
    EXPECT_EQ(rep.repaired, 24u);
    EXPECT_EQ(rep.rerouted_hops, 194u);
    EXPECT_EQ(rep.bfs_fallbacks, 1u);
    EXPECT_EQ(c.comm_cycles, 87u);
    EXPECT_EQ(c.comp_steps, 8u);
    EXPECT_EQ(c.messages, 1186u);
    EXPECT_EQ(c.ops, 1344u);
    EXPECT_EQ(c.messages_rerouted, 194u);
    EXPECT_EQ(c.messages_lost, 0u);
    EXPECT_EQ(c.fault_cycles, 87u);
  }
  {
    // The cross-edge 0-64 and the cluster link 5-7.
    FaultPlan plan;
    plan.kill_link(0, d.cross_neighbor(0)).kill_link(5, d.cluster_neighbor(5, 1));
    dc::sim::FtReport rep;
    const auto c = run(plan, rep);
    EXPECT_EQ(rep.base_cycles, 8u);
    EXPECT_EQ(rep.repair_cycles, 22u);
    EXPECT_EQ(rep.repaired, 8u);
    EXPECT_EQ(rep.rerouted_hops, 40u);
    EXPECT_EQ(rep.bfs_fallbacks, 8u);
    EXPECT_EQ(c.comm_cycles, 30u);
    EXPECT_EQ(c.comp_steps, 8u);
    EXPECT_EQ(c.messages, 1056u);
    EXPECT_EQ(c.ops, 1344u);
    EXPECT_EQ(c.messages_rerouted, 40u);
    EXPECT_EQ(c.messages_lost, 0u);
    EXPECT_EQ(c.fault_cycles, 30u);
  }
}

TEST(FtCollectives, RefuseTransientDropPlansOnTheMachine) {
  const DualCube d(2);
  Machine m(d);
  FaultPlan dead;
  dead.kill_node(3);
  auto noisy = std::make_shared<FaultTimeline>(dead);
  noisy->drop_window(100, 0, kForever);
  m.attach_faults(noisy, FaultPolicy::kDegrade);
  EXPECT_THROW(dc::collectives::ft_dual_broadcast<int>(m, d, 0, 1, dead),
               CheckError);
}

// ------------------------------------------- proxy emulation, no fork

using dc::sim::FtReport;
using dc::sim::ProxyScope;

TEST(ProxyScope, EmulatedPrefixRunsUnderNodeAndLinkFaults) {
  // The naive hypercube emulation has no fault-tolerant fork: inside a
  // scope its 6n-5 relayed exchanges ride the detour transport and every
  // slot, the dead node's included, gets the scan of the masked inputs.
  const RecursiveDualCube r(3);
  FaultPlan plan;
  plan.kill_node(5).kill_link(0, 1);
  const Plus<dc::u64> op;
  auto data = iota_data(r.node_count());
  data[5] = op.identity();
  Machine m(r);
  m.attach_faults(std::make_shared<FaultTimeline>(plan), FaultPolicy::kStrict);
  FtReport rep;
  std::vector<dc::u64> got;
  {
    ProxyScope proxies(m, r, plan, dc::sim::proxy_map(r, plan.dead_nodes()),
                       rep);
    got = dc::core::emulated_prefix(m, r, op, data);
  }
  EXPECT_EQ(got, dc::core::seq_inclusive_scan(op, data));
  EXPECT_EQ(rep.base_cycles, 6u * r.order() - 5);
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_EQ(m.counters().messages_rerouted, rep.rerouted_hops);
}

TEST(ProxyScope, DualAllreduceUnderTheDualCubeRouter) {
  const DualCube d(3);
  FaultPlan plan;
  plan.kill_node(9).kill_node(20);
  const Plus<dc::u64> op;
  auto values = iota_data(d.node_count());
  dc::u64 live_total = 0;
  for (NodeId u = 0; u < d.node_count(); ++u) {
    if (u == 9 || u == 20) {
      values[u] = op.identity();
    } else {
      live_total += values[u];
    }
  }
  Machine m(d);
  m.attach_faults(std::make_shared<FaultTimeline>(plan), FaultPolicy::kStrict);
  FtReport rep;
  std::vector<dc::u64> got;
  {
    ProxyScope proxies(m, d, plan, rep, /*seed=*/7);
    got = dc::collectives::dual_allreduce(m, d, op, values);
  }
  for (NodeId u = 0; u < d.node_count(); ++u)
    EXPECT_EQ(got[u], live_total) << "slot " << u;
  EXPECT_EQ(rep.base_cycles, 2u * d.order());
  EXPECT_GT(rep.repaired, 0u);
}

TEST(ProxyScope, EmptyPlanCostsExactlyTheInterpretedRun) {
  const RecursiveDualCube r(3);
  std::vector<int> keys(r.node_count());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = static_cast<int>((i * 11) % 7);
  auto reference = keys;
  Machine healthy(r);
  healthy.set_schedule_path(dc::sim::SchedulePath::kInterpreted);
  dc::core::dual_sort(healthy, r, reference);

  Machine m(r);
  FtReport rep;
  {
    ProxyScope proxies(m, r, FaultPlan{}, dc::sim::proxy_map(r, {}), rep);
    dc::core::dual_sort(m, r, keys);
  }
  EXPECT_EQ(keys, reference);
  const auto a = m.counters();
  const auto b = healthy.counters();
  EXPECT_EQ(a.comm_cycles, b.comm_cycles);
  EXPECT_EQ(a.comp_steps, b.comp_steps);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.messages_rerouted, 0u);
  EXPECT_EQ(rep.base_cycles, a.comm_cycles);
  EXPECT_EQ(rep.repair_cycles, 0u);
  EXPECT_EQ(rep.repaired, 0u);
}

TEST(ProxyScope, ScopedSectionsNeverTouchTheScheduleCache) {
  const DualCube d(2);
  Machine m(d);  // compiled path: outside a scope this would record
  auto& cache = dc::sim::ScheduleCache::instance();
  const std::size_t before = cache.size();
  FtReport rep;
  {
    ProxyScope proxies(m, d, FaultPlan{}, rep, /*seed=*/1);
    dc::sim::ObliviousSection sec(m, "proxy_scope_probe", {d.order()});
    EXPECT_FALSE(sec.replaying());
    auto inbox = sec.exchange<dc::u64>(
        [&](NodeId u) { return d.cross_neighbor(u); },
        [](NodeId u) { return u * 10; });
    for (NodeId u = 0; u < d.node_count(); ++u) {
      ASSERT_TRUE(inbox.has(u));
      EXPECT_EQ(*inbox.block(u), d.cross_neighbor(u) * 10);
    }
    sec.commit();
  }
  EXPECT_EQ(cache.size(), before);
  EXPECT_EQ(m.replayed_cycles(), 0u);
  EXPECT_EQ(m.proxy_scope(), nullptr) << "the scope detaches on close";
}

TEST(ProxyScope, ScopesDoNotNest) {
  const DualCube d(2);
  Machine m(d);
  FtReport rep;
  ProxyScope outer(m, d, FaultPlan{}, rep, /*seed=*/1);
  EXPECT_THROW(ProxyScope(m, d, FaultPlan{}, rep, /*seed=*/2), CheckError);
  EXPECT_EQ(m.proxy_scope(), &outer);
}

// ------------------------------------------- exact fault-spec diagnostics

TEST(FaultSpec, NamesTheExactMalformedPiece) {
  const DualCube d(2);  // 8 nodes
  expect_sim_error([&] { dc::sim::parse_fault_spec("", d); },
                   "empty fault spec");
  expect_sim_error(
      [&] { dc::sim::parse_fault_spec("nodes", d); },
      "fault spec must be nodes:a,b,... or random:k[,seed], got 'nodes'");
  expect_sim_error([&] { dc::sim::parse_fault_spec("nodes:", d); },
                   "empty number in fault spec 'nodes:'");
  expect_sim_error([&] { dc::sim::parse_fault_spec("nodes:1,,2", d); },
                   "empty number in fault spec 'nodes:1,,2'");
  expect_sim_error([&] { dc::sim::parse_fault_spec("nodes:1x", d); },
                   "bad number '1x' in fault spec 'nodes:1x'");
  expect_sim_error([&] { dc::sim::parse_fault_spec("nodes:8", d); },
                   "fault spec names node 8 but " + d.name() +
                       " has 8 nodes");
  expect_sim_error([&] { dc::sim::parse_fault_spec("nodes:3,1,3", d); },
                   "fault spec names node 3 twice");
  expect_sim_error(
      [&] { dc::sim::parse_fault_spec("random:1,2,3", d); },
      "random fault spec is random:k[,seed], got 'random:1,2,3'");
  expect_sim_error([&] { dc::sim::parse_fault_spec("random:9", d); },
                   "cannot kill 9 of 8 nodes");
  expect_sim_error([&] { dc::sim::parse_fault_spec("bogus:1", d); },
                   "unknown fault spec kind 'bogus' (nodes|random)");
  // Numbers above 2^64-1 are refused, not wrapped to a small node id or
  // count (2^64 + 1 would otherwise name node 1).
  expect_sim_error(
      [&] { dc::sim::parse_fault_spec("nodes:18446744073709551617", d); },
      "number '18446744073709551617' in fault spec "
      "'nodes:18446744073709551617' is above 2^64-1");
  expect_sim_error(
      [&] { dc::sim::parse_fault_spec("random:18446744073709551616", d); },
      "number '18446744073709551616' in fault spec "
      "'random:18446744073709551616' is above 2^64-1");
  expect_sim_error(
      [&] { dc::sim::parse_fault_spec("random:1,99999999999999999999", d); },
      "number '99999999999999999999' in fault spec "
      "'random:1,99999999999999999999' is above 2^64-1");
  EXPECT_EQ(dc::sim::parse_fault_spec("random:1,18446744073709551615", d)
                .node_fault_count(),
            1u)
      << "2^64-1 itself is a valid seed";
}

// ------------------------------------------------ grammar mutation loops

/// Every mutant of a valid spec: each truncation, each single-byte
/// substitution from the grammars' alphabet, and each maximal digit run
/// replaced by a 20- or 21-digit number (2^64-1, 2^64, twenty nines,
/// 10^20, and the run itself left-padded with zeros to 21 digits).
std::vector<std::string> mutants_of(const std::string& spec) {
  const std::string alphabet = "0123456789:,+@-x";
  std::vector<std::string> out;
  for (std::size_t len = 0; len < spec.size(); ++len)
    out.push_back(spec.substr(0, len));
  for (std::size_t i = 0; i < spec.size(); ++i) {
    for (const char c : alphabet) {
      if (c == spec[i]) continue;
      std::string m = spec;
      m[i] = c;
      out.push_back(m);
    }
  }
  const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
  for (std::size_t i = 0; i < spec.size();) {
    if (!is_digit(spec[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < spec.size() && is_digit(spec[j])) ++j;
    const std::string run = spec.substr(i, j - i);
    for (const std::string& big :
         {std::string("18446744073709551615"),
          std::string("18446744073709551616"), std::string(20, '9'),
          "1" + std::string(20, '0'), std::string(21 - run.size(), '0') + run})
      out.push_back(spec.substr(0, i) + big + spec.substr(j));
    i = j;
  }
  return out;
}

/// Runs `check(spec)` on every mutant of every seed spec. A mutant must
/// either pass the check or throw SimError; any other exception fails.
/// Both outcomes must occur, so the loop really reaches the parser.
template <typename Check>
void expect_mutants_parse_or_refuse(const std::vector<std::string>& seeds,
                                    Check&& check) {
  std::size_t parsed = 0, refused = 0;
  for (const std::string& seed : seeds) {
    for (const std::string& spec : mutants_of(seed)) {
      try {
        check(spec);
        ++parsed;
      } catch (const dc::sim::SimError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "'" << spec << "' threw a non-SimError: " << e.what();
      } catch (...) {
        ADD_FAILURE() << "'" << spec << "' threw a non-exception";
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(FaultSpec, MutantsParseInRangeOrThrowSimError) {
  const DualCube d(3);
  expect_mutants_parse_or_refuse(
      {"nodes:1,5,9", "nodes:31", "random:4,77", "random:3"},
      [&](const std::string& spec) {
        const FaultPlan plan = dc::sim::parse_fault_spec(spec, d);
        for (const NodeId u : plan.dead_nodes())
          EXPECT_LT(u, d.node_count()) << spec;
        for (const auto& [u, v] : plan.dead_links())
          EXPECT_TRUE(d.has_edge(u, v)) << spec;
      });
}

TEST(FaultTimelineSpec, MutantsParseInRangeOrThrowSimError) {
  const DualCube d(3);
  expect_mutants_parse_or_refuse(
      {"link:0-1:down@4:up@9+node:3:down@2+drop:50@10-12",
       "node:5:down@3:up@40", "link:0-16:down@2+link:1-0:down@4",
       "drop:10@100-200+node:31:down@0"},
      [&](const std::string& spec) {
        const FaultTimeline t = dc::sim::parse_fault_timeline(spec, d);
        for (const auto& ev : t.node_events())
          EXPECT_LT(ev.node, d.node_count()) << spec;
        for (const auto& ev : t.link_events())
          EXPECT_TRUE(d.has_edge(ev.u, ev.v)) << spec;
        for (const auto& w : t.drop_windows())
          EXPECT_LE(w.permille, 1000u) << spec;
        EXPECT_LE(t.max_concurrent_node_faults(), d.node_count()) << spec;
        for (const std::uint64_t start : t.epoch_starts())
          EXPECT_LT(start, FaultTimeline::kForever) << spec;
      });
}

// --------------------------------------------- pinned transient-drop hash

TEST(TransientDropHash, GoldenValuesArePlatformStable) {
  // The (seed, cycle, sender) -> permille formula is part of the model
  // contract (docs/MODEL.md "Fault model"): identical runs must lose
  // identical messages on every OS/arch/stdlib. These goldens pin it; a
  // change here is a reproducibility break, not a refactor.
  using dc::sim::detail::transient_drop_hash;
  EXPECT_EQ(transient_drop_hash(0, 0, 0), 876u);
  EXPECT_EQ(transient_drop_hash(42, 0, 0), 663u);
  EXPECT_EQ(transient_drop_hash(42, 1, 0), 325u);
  EXPECT_EQ(transient_drop_hash(42, 0, 1), 523u);
  EXPECT_EQ(transient_drop_hash(42, 7, 3), 130u);
  EXPECT_EQ(transient_drop_hash(1, 100, 63), 72u);
  EXPECT_EQ(transient_drop_hash(2024, 31, 15), 451u);
  EXPECT_EQ(transient_drop_hash(0xdeadbeefull, 5, 9), 705u);
  // FaultTimeline::drops_message is exactly "hash < permille".
  const FaultTimeline t = noisy_timeline(42, 326);
  EXPECT_TRUE(t.drops_message(1, 0));    // 325 < 326
  EXPECT_FALSE(t.drops_message(0, 0));   // 663 >= 326
  EXPECT_FALSE(t.drops_message(0, 1));   // 523 >= 326
}

// ------------------------------------------ exhaustive link-fault sweeps

std::vector<std::pair<NodeId, NodeId>> all_edges(const DualCube& d) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < d.node_count(); ++u)
    for (const NodeId v : d.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  return edges;
}

TEST(FtLinkFaults, ExhaustiveEveryLinkSetBelowNOnD2) {
  // D_n is n-regular with vertex connectivity n, so its edge connectivity
  // is exactly n: any set of fewer than n link faults leaves it connected
  // and both collectives must succeed with zero data loss. D_2: every
  // single link, both collectives, both policies.
  const DualCube d(2);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  for (const auto& [u, v] : all_edges(d)) {
    FaultPlan plan;
    plan.kill_link(u, v);
    for (const FaultPolicy policy :
         {FaultPolicy::kStrict, FaultPolicy::kDegrade}) {
      expect_broadcast_correct(d, /*root=*/0, plan, policy, /*attach=*/true);
      expect_prefix_correct(d, op, data, plan, policy, /*attach=*/true);
    }
  }
}

TEST(FtLinkFaults, ExhaustiveSinglesAndPairsOnD3) {
  // D_3 (edge connectivity 3): every single link and every pair of links,
  // both policies. 48 edges -> 48 + 1128 sets per policy per collective.
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  const auto edges = all_edges(d);
  ASSERT_EQ(edges.size(), d.node_count() * d.order() / 2);
  const auto check = [&](const FaultPlan& plan, FaultPolicy policy) {
    expect_broadcast_correct(d, /*root=*/0, plan, policy, /*attach=*/true);
    expect_prefix_correct(d, op, data, plan, policy, /*attach=*/true);
  };
  for (std::size_t i = 0; i < edges.size(); ++i) {
    FaultPlan one;
    one.kill_link(edges[i].first, edges[i].second);
    check(one, FaultPolicy::kStrict);
    check(one, FaultPolicy::kDegrade);
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      FaultPlan two;
      two.kill_link(edges[i].first, edges[i].second);
      two.kill_link(edges[j].first, edges[j].second);
      // Strict everywhere; degrade on a deterministic eighth of the pairs
      // (the policies share the routing layer — degrade differs only in
      // the filter's reaction, fully covered by the single-link sweep).
      check(two, FaultPolicy::kStrict);
      if ((i + j) % 8 == 0) check(two, FaultPolicy::kDegrade);
    }
  }
}

// ------------------------------------------------------- fault timelines

TEST(FaultTimelineTest, IntervalsFlapAndRejoin) {
  FaultTimeline t;
  t.link_down(0, 1, 4).link_up(0, 1, 9).link_down(1, 0, 20);
  t.node_down(3, 2).node_up(3, 6);
  EXPECT_FALSE(t.link_dead(0, 1, 3));
  EXPECT_TRUE(t.link_dead(0, 1, 4));
  EXPECT_TRUE(t.link_dead(1, 0, 8));   // orientation-free
  EXPECT_FALSE(t.link_dead(0, 1, 9));  // half-open: up cycle is healthy
  EXPECT_TRUE(t.link_dead(0, 1, 20));  // second flap, open-ended
  EXPECT_TRUE(t.link_dead(0, 1, 1000));
  EXPECT_FALSE(t.node_dead(3, 1));
  EXPECT_TRUE(t.node_dead(3, 2));
  EXPECT_TRUE(t.node_dead(3, 5));
  EXPECT_FALSE(t.node_dead(3, 6));
  EXPECT_EQ(t.rejoins_between(0, 5), std::vector<NodeId>{});
  EXPECT_EQ(t.rejoins_between(5, 6), std::vector<NodeId>{3});
  EXPECT_EQ(t.max_concurrent_node_faults(), 1u);
  // any_active is exact: everything has healed by cycle 25? No — the
  // second link flap never closes.
  EXPECT_TRUE(t.any_active(25));
  EXPECT_FALSE(t.any_active(10));  // between flaps, node healed
}

TEST(FaultTimelineTest, EpochsPartitionTheCycleAxis) {
  FaultTimeline t;
  t.node_down(2, 5).node_up(2, 8);
  t.link_down(0, 1, 8);
  t.drop_window(100, 12, 15);
  // Boundaries: 0, 5, 8 (up + link down coincide), 12, 15.
  EXPECT_EQ(t.epoch_starts(), (std::vector<std::uint64_t>{0, 5, 8, 12, 15}));
  EXPECT_EQ(t.epoch_count(), 5u);
  EXPECT_EQ(t.epoch_of(0), 0u);
  EXPECT_EQ(t.epoch_of(4), 0u);
  EXPECT_EQ(t.epoch_of(5), 1u);
  EXPECT_EQ(t.epoch_of(7), 1u);
  EXPECT_EQ(t.epoch_of(8), 2u);
  EXPECT_EQ(t.epoch_of(14), 3u);
  EXPECT_EQ(t.epoch_of(1000), 4u);
}

TEST(FaultTimelineTest, SnapshotsFreezeOneEpoch) {
  FaultTimeline t(7);
  t.node_down(2, 5).node_up(2, 8);
  t.drop_window(250, 5, 8);
  const FaultPlan before = t.snapshot(4);
  EXPECT_TRUE(before.empty());
  const FaultPlan during = t.snapshot(6);
  EXPECT_EQ(during.dead_nodes(), std::vector<NodeId>{2});
  EXPECT_TRUE(during.node_dead(2));
  const FaultPlan after = t.snapshot(8);
  EXPECT_TRUE(after.empty());
  // The machine-facing queries agree with the snapshot at every cycle.
  for (std::uint64_t c : {0ull, 5ull, 7ull, 8ull, 100ull}) {
    EXPECT_EQ(t.node_dead(2, c), t.snapshot(c).node_dead(2)) << c;
  }
  // Window drop decisions match an always-on window with the same seed
  // inside the window, and never fire outside it.
  const FaultTimeline noisy = noisy_timeline(7, 250);
  for (NodeId s = 0; s < 8; ++s) {
    EXPECT_EQ(t.drops_message(6, s), noisy.drops_message(6, s));
    EXPECT_FALSE(t.drops_message(4, s));
    EXPECT_FALSE(t.drops_message(8, s));
  }
}

TEST(FaultTimelineTest, BuilderRejectsIllFormedSequences) {
  expect_sim_error(
      [] { FaultTimeline().node_down(3, 5).node_down(3, 7); },
      "node 3 is already down at cycle 7");
  expect_sim_error(
      [] { FaultTimeline().node_up(3, 5); },
      "node 3 is not down at cycle 5");
  expect_sim_error(
      [] { FaultTimeline().node_down(3, 5).node_up(3, 5); },
      "node 3 up@5 must come after its down@5");
  expect_sim_error(
      [] {
        FaultTimeline().node_down(3, 5).node_up(3, 8).node_down(3, 7);
      },
      "node 3 down/up events must be in cycle order");
  expect_sim_error(
      [] { FaultTimeline().link_down(2, 2, 1); },
      "a link joins two distinct nodes");
  expect_sim_error(
      [] { FaultTimeline().link_up(0, 1, 4); },
      "link 0-1 is not down at cycle 4");
  expect_sim_error(
      [] { FaultTimeline().drop_window(1001, 0, 5); },
      "drop rate is per mille");
  expect_sim_error(
      [] { FaultTimeline().drop_window(10, 5, 5); },
      "drop window [5, 5) is empty");
  expect_sim_error(
      [] { FaultTimeline().drop_window(10, 0, 5).drop_window(20, 4, 9); },
      "drop windows overlap at cycle 4");
  // kForever is the end of an interval that never closes, so no event
  // happens at it.
  expect_sim_error(
      [] { FaultTimeline().node_down(3, kForever); },
      "node 3 down@18446744073709551615: cycle 2^64-1 means never");
  expect_sim_error(
      [] { FaultTimeline().node_down(3, 2).node_up(3, kForever); },
      "node 3 up@18446744073709551615: cycle 2^64-1 means never");
  expect_sim_error(
      [] { FaultTimeline().link_down(0, 1, kForever); },
      "link 0-1 down@18446744073709551615: cycle 2^64-1 means never");
  expect_sim_error(
      [] { FaultTimeline().link_down(0, 1, 2).link_up(0, 1, kForever); },
      "link 0-1 up@18446744073709551615: cycle 2^64-1 means never");
  // A drop window may stay open to kForever without adding an epoch.
  EXPECT_EQ(noisy_timeline(1, 10).epoch_starts(),
            std::vector<std::uint64_t>{0});
}

TEST(FaultTimelineSpec, ParsesFullGrammar) {
  const DualCube d(2);
  const FaultTimeline t = dc::sim::parse_fault_timeline(
      "link:0-1:down@4:up@9+node:3:down@2+drop:50@10-12", d, /*seed=*/5);
  EXPECT_EQ(t.seed(), 5u);
  EXPECT_TRUE(t.link_dead(0, 1, 4));
  EXPECT_FALSE(t.link_dead(0, 1, 9));
  EXPECT_TRUE(t.node_dead(3, 2));
  EXPECT_TRUE(t.node_dead(3, 1000)) << "no up event: down forever";
  EXPECT_EQ(t.drop_permille_at(10), 50u);
  EXPECT_EQ(t.drop_permille_at(12), 0u);
  EXPECT_EQ(t.epoch_starts(), (std::vector<std::uint64_t>{0, 2, 4, 9, 10, 12}));
}

TEST(FaultTimelineSpec, NamesTheExactMalformedEvent) {
  const DualCube d(2);
  const auto parse = [&](const char* s) {
    return [&d, s] { dc::sim::parse_fault_timeline(s, d); };
  };
  expect_sim_error(parse(""), "empty fault timeline spec");
  expect_sim_error(parse("node"),
                   "fault timeline event 'node' is missing a node id");
  expect_sim_error(parse("node:9:down@0"),
                   "fault timeline names node 9 but " + d.name() +
                       " has 8 nodes");
  expect_sim_error(parse("node:3"),
                   "fault timeline event 'node:3' must be "
                   "down@CYCLE[:up@CYCLE]");
  expect_sim_error(parse("node:3:up@4"),
                   "fault timeline event 'node:3:up@4' must be "
                   "down@CYCLE[:up@CYCLE]");
  expect_sim_error(parse("link"),
                   "fault timeline event 'link' is missing U-V endpoints");
  expect_sim_error(parse("link:01:down@0"),
                   "fault timeline link endpoints must be U-V, got '01'");
  expect_sim_error(parse("link:2-2:down@0"),
                   "fault timeline link 2-2 joins a node to itself");
  expect_sim_error(parse("link:0-3:down@0"),
                   "fault timeline link 0-3 is not an edge of " + d.name());
  expect_sim_error(parse("drop:50"),
                   "fault timeline drop window must be drop:PERMILLE@FROM-TO, "
                   "got 'drop:50'");
  expect_sim_error(parse("drop:1001@0-5"),
                   "fault timeline drop rate 1001 is per mille (<= 1000)");
  expect_sim_error(parse("flood:1"),
                   "unknown fault timeline event kind 'flood' (node|link|drop)");
  // Numbers above 2^64-1 are refused, not wrapped: 2^64 + 1 would name
  // node 1, 2^64 cycle 0 and 2^64 + 1 a 1 per-mille drop rate.
  expect_sim_error(parse("node:18446744073709551617:down@0"),
                   "number '18446744073709551617' in fault spec "
                   "'node:18446744073709551617:down@0' is above 2^64-1");
  expect_sim_error(parse("node:3:down@18446744073709551616"),
                   "number '18446744073709551616' in fault spec "
                   "'node:3:down@18446744073709551616' is above 2^64-1");
  expect_sim_error(parse("drop:18446744073709551617@0-5"),
                   "number '18446744073709551617' in fault spec "
                   "'drop:18446744073709551617@0-5' is above 2^64-1");
  expect_sim_error(parse("link:0-1:down@0:up@99999999999999999999"),
                   "number '99999999999999999999' in fault spec "
                   "'link:0-1:down@0:up@99999999999999999999' is above "
                   "2^64-1");
}

// ---------------------------------------------- machine over a timeline

TEST(MachineTimeline, FlapDropsOnlyInsideTheWindowAndCountsEpochs) {
  const DualCube d(2);  // 0-1 is a cluster edge
  Machine m(d);
  auto t = std::make_shared<FaultTimeline>();
  t->link_down(0, 1, 2).link_up(0, 1, 4);
  m.attach_faults(t, FaultPolicy::kDegrade);
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kInterpreted);
  for (int cycle = 0; cycle < 6; ++cycle) {
    auto inbox =
        m.comm_cycle<int>([&](NodeId u) -> std::optional<dc::sim::Send<int>> {
          if (u != 0) return std::nullopt;
          return dc::sim::Send<int>{1, cycle};
        });
    const bool down = cycle >= 2 && cycle < 4;
    EXPECT_EQ(inbox[1].has_value(), !down) << "cycle " << cycle;
  }
  const auto c = m.counters();
  EXPECT_EQ(c.messages_lost, 2u);
  EXPECT_EQ(c.fault_cycles, 2u) << "any_active is exact: healed cycles are "
                                   "not fault cycles";
  // Saw epoch 0 at cycle 0, epoch 1 at cycle 2, epoch 2 at cycle 4.
  EXPECT_EQ(m.fault_epochs_seen(), 3u);
  EXPECT_EQ(m.fault_rejoins(), 0u);
  m.clear_faults();
  EXPECT_FALSE(m.has_faults());
}

TEST(MachineTimeline, StrictThrowsTheExactPlanMessages) {
  const DualCube d(2);
  Machine m(d);
  auto t = std::make_shared<FaultTimeline>();
  t->node_down(1, 1).node_up(1, 2);
  m.attach_faults(t, FaultPolicy::kStrict);
  const auto send01 = [&] {
    m.comm_cycle<int>([](NodeId u) -> std::optional<dc::sim::Send<int>> {
      if (u != 0) return std::nullopt;
      return dc::sim::Send<int>{1, 7};
    });
  };
  send01();  // cycle 0: healthy
  try {
    send01();  // cycle 1: node 1 is down
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent to faulty node 1 (cycle 1)");
  }
  // The throw left cycle 1 uncounted; the retry replays cycle 1, which is
  // still inside the outage -- back off one cycle first (send nothing),
  // then the rejoin at cycle 2 lets the same send through.
  EXPECT_EQ(m.counters().comm_cycles, 1u);
  m.comm_cycle<int>([](NodeId) { return std::optional<dc::sim::Send<int>>{}; });
  send01();  // cycle 2: node 1 rejoined
  EXPECT_EQ(m.counters().comm_cycles, 3u);
  EXPECT_EQ(m.fault_rejoins(), 1u);
}

TEST(MachineTimeline, RefusesCompiledReplayAndDoubleAttach) {
  const DualCube d(2);
  Machine m(d);
  m.set_schedule_path(dc::sim::SchedulePath::kCompiled);
  auto t = std::make_shared<FaultTimeline>();
  t->link_down(0, 1, 100);
  m.attach_faults(t);
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kInterpreted);
  dc::sim::ScheduleCycle cyc;
  cyc.recv_from.assign(d.node_count(), dc::sim::kNoSender);
  cyc.recv_slot.assign(d.node_count(), dc::sim::kNoEdgeSlot);
  EXPECT_THROW(m.comm_cycle_scheduled_blocks<int>(
                   cyc, 1, [](NodeId, int* dst) { *dst = 0; }),
               CheckError);
  // A second attach replaces the first: a machine has one fault source.
  const auto plan = std::make_shared<FaultTimeline>(FaultPlan().kill_node(1));
  m.attach_faults(plan);
  EXPECT_EQ(m.fault_timeline(), plan.get());
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kInterpreted);
  m.clear_faults();
  EXPECT_EQ(m.schedule_path(), dc::sim::SchedulePath::kCompiled);
}

TEST(MachineTimeline, TimelineViewFingerprintsDifferPerEpoch) {
  const DualCube d(3);
  FaultTimeline t;
  t.node_down(5, 10).node_up(5, 20).node_down(9, 20);
  const FaultyTopology e0(d, t.snapshot(0));
  const FaultyTopology e1(d, t.snapshot(10));
  const FaultyTopology e2(d, t.snapshot(20));
  const auto f0 = e0.flat_adjacency().fingerprint();
  const auto f1 = e1.flat_adjacency().fingerprint();
  const auto f2 = e2.flat_adjacency().fingerprint();
  EXPECT_EQ(f0, d.flat_adjacency().fingerprint())
      << "the pre-fault epoch is the healthy graph";
  EXPECT_NE(f1, f0);
  EXPECT_NE(f2, f0);
  EXPECT_NE(f1, f2) << "each epoch's faulted view keys the schedule cache "
                       "differently, so no epoch can replay another's "
                       "schedule";
}

TEST(MachineTimeline, DropWindowRefusalIsOneExactSimError) {
  // dcsim prints this refusal after "bad --fault-timeline spec: ", so it
  // must read the same from every build: no source location in it.
  const DualCube d(2);
  const std::vector<std::uint64_t> data(d.node_count(), 1);
  const std::string refusal =
      "fault-tolerant collectives require a drop-free fault plan";
  Machine timed(d);
  timed.attach_faults(
      std::make_shared<FaultTimeline>(
          dc::sim::parse_fault_timeline("drop:10@100-200", d, /*seed=*/1)),
      FaultPolicy::kDegrade);
  expect_sim_error(
      [&] {
        (void)dc::core::ft_dual_prefix(timed, d, Plus<std::uint64_t>{}, data,
                                       FaultPlan{});
      },
      refusal);
  // A static dead set plus an always-on drop window.
  FaultPlan dead;
  dead.kill_node(3);
  auto noisy = std::make_shared<FaultTimeline>(dead);
  noisy->drop_window(100, 0, kForever);
  Machine planned(d);
  planned.attach_faults(noisy, FaultPolicy::kDegrade);
  expect_sim_error(
      [&] {
        (void)dc::core::ft_dual_prefix(planned, d, Plus<std::uint64_t>{},
                                       data, dead);
      },
      refusal);
}

}  // namespace
