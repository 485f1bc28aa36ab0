// Self-healing execution over dynamic fault timelines.
//
// The contract under test (sim/recovery.hpp + the Machine's timeline
// filter):
//   * a RecoveryDriver owns the machine's fault attachment: strict
//     filtering while it lives, restored to clean on destruction; its
//     degraded final attempt changes only the policy, so no epoch is
//     counted twice;
//   * a mid-phase fault (epoch change invalidating the planned routes)
//     throws, the driver pays linear backoff — real machine cycles that
//     advance the timeline clock — re-snapshots the new epoch and retries
//     the phase from its checkpoint;
//   * the retry budget bounds total retries; past it the driver either
//     finishes one attempt under kDegrade (messages lost, counted) or
//     rethrows, per RetryPolicy — and a degraded attempt that loses a
//     detour the algorithm needs fails with an exact FaultError;
//   * every retry/replan/epoch/rejoin is observable: trace instants,
//     metrics counters, Machine counters;
//   * the resilient prefix/broadcast wrappers complete through flaps with
//     the same results as a healthy run (dead-node slots excepted), and
//     never replay a compiled schedule (the timeline pins the machine to
//     the interpreted path);
//   * the sharded engine localizes a global timeline into per-shard ones,
//     rejecting faults on host-virtualized cross-cluster links.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dual_prefix.hpp"
#include "core/ops.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/recovery.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
#include "topology/dual_cube.hpp"
#include "topology/shard_plan.hpp"

namespace dc::sim {
namespace {

using dc::core::Plus;
using dc::net::DualCube;
using dc::net::NodeId;

std::shared_ptr<const FaultTimeline> share(FaultTimeline t) {
  return std::make_shared<const FaultTimeline>(std::move(t));
}

/// Sends 0 -> 1 once (one comm cycle); throws under strict when 0-1 is
/// down at the machine's current cycle.
void send_01(Machine& m) {
  m.comm_cycle<int>([](NodeId u) -> std::optional<Send<int>> {
    if (u != 0) return std::nullopt;
    return Send<int>{1, 7};
  });
}

std::vector<dc::u64> iota_data(std::size_t n) {
  std::vector<dc::u64> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = i + 1;
  return data;
}

std::size_t count_instants(const TraceRecorder& rec, const std::string& name) {
  std::size_t n = 0;
  for (const TraceEvent& e : rec.merged())
    if (e.ph == 'i' && e.name == name) ++n;
  return n;
}

// ------------------------------------------------------ driver lifecycle

TEST(RecoveryDriver, OwnsTheMachineFaultAttachment) {
  const DualCube d(2);
  Machine m(d);
  m.set_schedule_path(SchedulePath::kCompiled);
  {
    RecoveryDriver drv(m, share(FaultTimeline().link_down(0, 1, 100)));
    EXPECT_TRUE(m.has_faults());
    EXPECT_EQ(m.schedule_path(), SchedulePath::kInterpreted)
        << "a timeline pins the machine to interpretation: no compiled "
           "schedule can replay a faulted epoch";
    EXPECT_EQ(drv.now(), 0u);
    EXPECT_TRUE(drv.snapshot().empty()) << "faults start at cycle 100";
  }
  EXPECT_FALSE(m.has_faults());
  EXPECT_EQ(m.schedule_path(), SchedulePath::kCompiled);
  // The driver refuses a machine that already carries faults.
  m.attach_faults(std::make_shared<FaultTimeline>(FaultPlan().kill_node(3)));
  EXPECT_THROW(RecoveryDriver(m, share(FaultTimeline())), dc::CheckError);
  m.clear_faults();
}

TEST(RecoveryDriver, HealthyPhasesRunExactlyOnce) {
  const DualCube d(2);
  Machine m(d);
  RecoveryDriver drv(m, share(FaultTimeline()));
  int calls = 0;
  drv.run_phase("phase:test", [&](const FaultPlan& plan) {
    EXPECT_TRUE(plan.empty());
    ++calls;
    send_01(drv.machine());
  });
  drv.run_phase("phase:test", [&](const FaultPlan&) { ++calls; });
  EXPECT_EQ(calls, 2);
  const RecoveryReport& r = drv.report();
  EXPECT_EQ(r.phases, 2u);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.replans, 0u);
  EXPECT_EQ(r.backoff_cycles, 0u);
  EXPECT_FALSE(r.degraded);
}

TEST(RecoveryDriver, RetriesWithLinearBackoffUntilTheFlapHeals) {
  const DualCube d(2);
  Machine m(d);
  // 0-1 is down over [0, 5): the phase cannot succeed until the clock
  // reaches 5, and only backoff advances the clock.
  RecoveryDriver drv(m, share(FaultTimeline().link_down(0, 1, 0).link_up(0, 1, 5)));
  int calls = 0;
  drv.run_phase("phase:test", [&](const FaultPlan& plan) {
    ++calls;
    // The replanned snapshots see the fault while it is live.
    EXPECT_EQ(plan.link_dead(0, 1), drv.now() < 5);
    send_01(drv.machine());
  });
  // Attempt 1 at cycle 0: throw (cycle stays uncounted). Backoff 1*2 ->
  // clock 2. Attempt 2 at cycle 2: throw. Backoff 2*2 -> clock 6. Attempt
  // 3 at cycle 6: the link healed at 5, send succeeds.
  EXPECT_EQ(calls, 3);
  const RecoveryReport& r = drv.report();
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.replans, 2u);
  EXPECT_EQ(r.backoff_cycles, 6u);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(m.counters().comm_cycles, 7u);  // 6 idle + 1 delivered
  EXPECT_EQ(m.counters().messages_lost, 0u);
}

TEST(RecoveryDriver, BudgetExhaustionDegradesWhenAsked) {
  const DualCube d(2);
  Machine m(d);
  RetryPolicy policy;
  policy.retry_budget = 1;
  policy.backoff_cycles = 1;
  policy.degrade_on_exhaustion = true;
  // Permanent link death: no amount of retrying helps.
  RecoveryDriver drv(m, share(FaultTimeline().link_down(0, 1, 0)), policy);
  int calls = 0;
  drv.run_phase("phase:test", [&](const FaultPlan&) {
    ++calls;
    send_01(drv.machine());
  });
  // Attempt 1 throws. No later event can change the faults, so the driver
  // spends none of its budget and its final attempt, under kDegrade, drops
  // the message and completes.
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(drv.report().degraded);
  EXPECT_EQ(drv.report().retries, 0u);
  EXPECT_EQ(drv.report().backoff_cycles, 0u);
  EXPECT_EQ(m.counters().messages_lost, 1u);
  // The driver restores strict filtering for subsequent phases.
  EXPECT_THROW(send_01(m), FaultError);
}

TEST(RecoveryDriver, BudgetExhaustionRethrowsWhenDegradeIsOff) {
  const DualCube d(2);
  Machine m(d);
  RetryPolicy policy;
  policy.retry_budget = 0;
  policy.degrade_on_exhaustion = false;
  RecoveryDriver drv(m, share(FaultTimeline().link_down(0, 1, 0)), policy);
  EXPECT_THROW(drv.run_phase("phase:test",
                             [&](const FaultPlan&) { send_01(drv.machine()); }),
               FaultError);
  EXPECT_EQ(drv.report().retries, 0u);
  EXPECT_FALSE(drv.report().degraded);
}

// --------------------------------------------------- resilient wrappers

TEST(ResilientPrefix, CompletesThroughAMidRunCrossEdgeFlap) {
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  // Healthy reference.
  Machine healthy(d);
  healthy.set_schedule_path(SchedulePath::kInterpreted);
  const auto reference = dc::core::dual_prefix(healthy, d, op, data);
  // Algorithm 2's first cross-edge exchange is cycle 2 (after w = n-1 = 2
  // cluster cycles). Flap the 0 <-> cross(0) edge exactly there: the
  // first attempt planned healthy routes at cycle 0 and must abort.
  FaultTimeline t;
  t.link_down(0, d.cross_neighbor(0), 2).link_up(0, d.cross_neighbor(0), 4);
  Machine m(d);
  TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
  m.set_trace(&rec, "recovery-run");
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = resilient_dual_prefix(drv, d, op, data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "index " << i;
    EXPECT_EQ(*got[i], reference[i]) << "index " << i;
  }
  EXPECT_GE(drv.report().retries, 1u);
  EXPECT_EQ(drv.report().replans, drv.report().retries);
  EXPECT_FALSE(drv.report().degraded);
  EXPECT_EQ(m.replayed_cycles(), 0u)
      << "a timeline-attached machine interprets every cycle";
  // The whole story is on the trace: epoch transitions, the retry and the
  // replan, plus balanced phase spans.
  EXPECT_GE(count_instants(rec, "fault_epoch"), 2u);
  EXPECT_EQ(count_instants(rec, "recovery_retry"), drv.report().retries);
  EXPECT_EQ(count_instants(rec, "recovery_replan"), drv.report().replans);
  std::int64_t depth = 0;
  for (const TraceEvent& e : rec.merged()) {
    if (e.ph == 'B') ++depth;
    if (e.ph == 'E') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0) << "spans balance even across aborted attempts";
}

TEST(ResilientPrefix, RejoinedNodesAreObservedAndCounted) {
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  // Node 9 is down over [1, 3): the first attempt planned it healthy at
  // cycle 0, aborts at cycle 1, and the retry lands after the rejoin.
  FaultTimeline t;
  t.node_down(9, 1).node_up(9, 3);
  Machine m(d);
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = resilient_dual_prefix(drv, d, op, data);
  // The final attempt's snapshot is fault-free, so every slot engages
  // with the full (unmasked) prefix.
  Machine healthy(d);
  healthy.set_schedule_path(SchedulePath::kInterpreted);
  const auto reference = dc::core::dual_prefix(healthy, d, op, data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "index " << i;
    EXPECT_EQ(*got[i], reference[i]) << "index " << i;
  }
  EXPECT_GE(drv.report().retries, 1u);
  EXPECT_EQ(m.fault_rejoins(), 1u);
  EXPECT_GE(m.fault_epochs_seen(), 2u);
}

TEST(ResilientPrefix, DegradedAttemptThatLosesADetourFailsExactly) {
  // With no retry budget the first fault (0-16 down at cycle 2) sends the
  // run straight to its degraded final attempt, which plans its detours
  // around 0-16. Link 1-0 then dies at cycle 4 under a planned detour
  // hop, and the degraded machine drops it. A lost partial sum cannot be
  // emulated, so the run must fail with an exact FaultError — not wait
  // forever for the packet, and not finish with a wrong scan.
  const DualCube d(3);
  ASSERT_EQ(d.cross_neighbor(0), 16u);
  FaultTimeline t;
  t.link_down(0, 16, 2).link_down(1, 0, 4);
  Machine m(d);
  RetryPolicy policy;
  policy.retry_budget = 0;
  policy.degrade_on_exhaustion = true;
  RecoveryDriver drv(m, share(std::move(t)), policy);
  try {
    (void)resilient_dual_prefix(drv, d, Plus<dc::u64>{},
                                iota_data(d.node_count()));
    ADD_FAILURE() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(std::string(e.what()),
              "detour to logical node 16 was dropped in flight");
  }
  EXPECT_TRUE(drv.report().degraded);
  EXPECT_EQ(m.counters().messages_lost, 2u);
}

TEST(ResilientPrefix, DegradedFinishCountsEachEpochOnce) {
  // 0-16 is down over [1, 30) and there is no retry budget, so the first
  // fault sends the run to its degraded final attempt. Switching the
  // machine to kDegrade must not restart its epoch bookkeeping: the run
  // crosses epochs 0 and 1, ends in epoch 1, and counts each once.
  const DualCube d(3);
  ASSERT_EQ(d.cross_neighbor(0), 16u);
  FaultTimeline t;
  t.link_down(0, 16, 1).link_up(0, 16, 30);
  Machine m(d);
  TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
  m.set_trace(&rec, "degraded-run");
  RetryPolicy policy;
  policy.retry_budget = 0;
  policy.degrade_on_exhaustion = true;
  RecoveryDriver drv(m, share(std::move(t)), policy);
  (void)resilient_dual_prefix(drv, d, Plus<dc::u64>{},
                              iota_data(d.node_count()));
  EXPECT_TRUE(drv.report().degraded);
  EXPECT_EQ(drv.timeline().epoch_of(drv.now()), 1u);
  EXPECT_EQ(m.fault_epochs_seen(), 2u);
  // One fault_epoch instant per epoch crossed: (epoch, cycle) pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> epochs;
  for (const TraceEvent& e : rec.merged())
    if (e.ph == 'i' && std::string(e.name) == "fault_epoch")
      epochs.emplace_back(e.arg_a, e.arg_b);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want{{0, 0},
                                                                  {1, 1}};
  EXPECT_EQ(epochs, want);
}

TEST(ResilientBroadcast, NodesDeadInTheFinalSnapshotStayNull) {
  const DualCube d(3);
  // Killing a cross-partner of the root's cluster forces repair traffic
  // (its foreign cluster is reachable only by detour), so the transport
  // accounting is exercised too.
  const NodeId victim = d.cross_neighbor(1);
  FaultTimeline t;
  t.node_down(victim, 0);  // never rejoins
  Machine m(d);
  RecoveryDriver drv(m, share(std::move(t)));
  const auto got = resilient_dual_broadcast<int>(drv, d, /*root=*/0, 42);
  for (NodeId u = 0; u < d.node_count(); ++u) {
    if (u == victim) {
      EXPECT_FALSE(got[u].has_value());
    } else {
      ASSERT_TRUE(got[u].has_value()) << "node " << u;
      EXPECT_EQ(*got[u], 42);
    }
  }
  // Dead from the start = planned around from the start: no retries.
  EXPECT_EQ(drv.report().retries, 0u);
  EXPECT_GT(drv.transport()->repaired, 0u);
}

TEST(ResilientPrefix, PublishesRetryAndEpochMetrics) {
  MetricsRegistry::instance().reset();
  MetricsRegistry::arm();
  const DualCube d(3);
  const Plus<dc::u64> op;
  const auto data = iota_data(d.node_count());
  FaultTimeline t;
  t.link_down(0, d.cross_neighbor(0), 2).link_up(0, d.cross_neighbor(0), 4);
  Machine m(d);
  {
    RecoveryDriver drv(m, share(std::move(t)));
    (void)resilient_dual_prefix(drv, d, op, data);
    EXPECT_GE(drv.report().retries, 1u);
    m.publish_metrics();
  }
  MetricsRegistry::disarm();
  const auto snap = MetricsRegistry::instance().snapshot();
  const auto counter_value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    return 0;
  };
  const auto gauge_value = [&](const std::string& name) -> double {
    for (const auto& [n, v] : snap.gauges)
      if (n == name) return v;
    return -1.0;
  };
  EXPECT_GE(counter_value("sim.fault.retries"), 1u);
  EXPECT_GE(counter_value("sim.fault.replans"), 1u);
  EXPECT_GE(gauge_value("sim.fault.epochs"), 2.0);
  EXPECT_EQ(gauge_value("sim.fault.rejoins"), 0.0);
}

// ------------------------------------------------------- sharded engine

TEST(ShardTimeline, LocalizesNodeEventsAndDropWindows) {
  const DualCube d(3);
  ShardEngine eng(d, 2);
  const net::ShardPlan plan(d, 2);
  const NodeId victim = 9;
  FaultTimeline global(123);
  global.node_down(victim, 4).node_up(victim, 8);
  global.drop_window(50, 10, 12);
  eng.attach_faults(global, FaultPolicy::kDegrade);
  EXPECT_TRUE(eng.has_faults());
  const unsigned home = plan.shard_of_node(victim);
  const NodeId local = plan.local_index(victim);
  for (unsigned k = 0; k < 2; ++k) {
    const FaultTimeline* tl = eng.machine(k).fault_timeline();
    ASSERT_NE(tl, nullptr) << "shard " << k;
    EXPECT_EQ(tl->node_dead(local, 5), k == home) << "shard " << k;
    EXPECT_EQ(tl->drop_permille_at(10), 50u) << "drop windows hit all shards";
    EXPECT_NE(tl->seed(), global.seed() ^ ((1 - k) * 0x9e3779b97f4a7c15ull))
        << "per-shard seeds are decorrelated";
  }
  eng.clear_faults();
  EXPECT_FALSE(eng.has_faults());
}

TEST(ShardTimeline, RejectsFaultsOnVirtualizedCrossClusterLinks) {
  const DualCube d(3);
  ShardEngine eng(d, 2);
  FaultTimeline global;
  global.link_down(0, d.cross_neighbor(0), 3);
  try {
    eng.attach_faults(global);
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("virtualized by the sharded engine"), std::string::npos)
        << msg;
  }
  EXPECT_FALSE(eng.has_faults()) << "a rejected attach leaves no partial state";
  // In-cluster links are real per-shard edges and may fault.
  FaultTimeline ok;
  ok.link_down(0, d.cluster_neighbor(0, 0), 3);
  eng.attach_faults(ok, FaultPolicy::kDegrade);
  EXPECT_TRUE(eng.has_faults());
  eng.clear_faults();
}

}  // namespace
}  // namespace dc::sim
