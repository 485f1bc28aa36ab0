// Schedule fusion tests: the static port-conflict check, the fusion
// plan's structural invariants, and the end-to-end parity proof that the
// fused prefix → broadcast stream produces bit-identical results in
// fewer replay cycles than the two sections run back-to-back.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "collectives/fused_prefix_broadcast.hpp"
#include "collectives/pipeline_broadcast.hpp"
#include "core/emulated_prefix.hpp"
#include "core/ops.hpp"
#include "core/sequential.hpp"
#include "sim/fusion.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::sim {
namespace {

class FusionTest : public ::testing::Test {
 protected:
  void SetUp() override { ScheduleCache::instance().clear(); }
  void TearDown() override { ScheduleCache::instance().clear(); }
};

// Builds a cycle where each (receiver, sender) pair delivers one message.
ScheduleCycle cycle_of(std::size_t n,
                       std::vector<std::pair<std::size_t, std::size_t>> rs) {
  ScheduleCycle c;
  c.recv_from.assign(n, kNoSender);
  c.recv_slot.assign(n, kNoEdgeSlot);
  for (const auto& [recv, send] : rs) {
    c.recv_from[recv] = static_cast<net::NodeId>(send);
    c.recv_slot[recv] = 0;
  }
  c.message_count = rs.size();
  return c;
}

TEST_F(FusionTest, PortDisjointnessNeedsDistinctSendersAndReceivers) {
  const std::size_t n = 8;
  std::vector<std::uint8_t> scratch(n, 0);

  const auto a = cycle_of(n, {{1, 0}, {3, 2}});
  EXPECT_TRUE(cycles_port_disjoint(a, cycle_of(n, {{5, 4}}), n, scratch));
  // Common receiver (node 1 hears from both sections).
  EXPECT_FALSE(cycles_port_disjoint(a, cycle_of(n, {{1, 6}}), n, scratch));
  // Common sender (node 2 would send twice in one cycle).
  EXPECT_FALSE(cycles_port_disjoint(a, cycle_of(n, {{7, 2}}), n, scratch));
  // A sending in one and receiving in the other is fine (1 port each way).
  EXPECT_TRUE(cycles_port_disjoint(a, cycle_of(n, {{0, 5}}), n, scratch));
  // The scratch must come back zeroed so checks can chain.
  for (const auto b : scratch) EXPECT_EQ(b, 0);
}

TEST_F(FusionTest, FusePlanPreservesOrderAndCyclecount) {
  const std::size_t n = 8;
  // A: three cycles on low nodes; B: three cycles, the middle one
  // conflicting with every A cycle (common sender 0 / receiver 1).
  auto a = std::make_shared<const Schedule>(std::vector<ScheduleCycle>{
      cycle_of(n, {{1, 0}}), cycle_of(n, {{2, 1}}), cycle_of(n, {{3, 2}})});
  auto b = std::make_shared<const Schedule>(std::vector<ScheduleCycle>{
      cycle_of(n, {{5, 4}}), cycle_of(n, {{1, 0}}), cycle_of(n, {{6, 7}})});

  const FusedSchedule f = fuse_schedules(a, b, n);
  EXPECT_EQ(f.steps.size(),
            a->cycle_count() + b->cycle_count() - f.merged_count());
  EXPECT_GE(f.merged_count(), 1u);
  EXPECT_EQ(f.cycles_saved(), f.merged_count());

  // Every A index and every B index appears exactly once, in order.
  std::vector<std::size_t> a_seen, b_seen;
  for (const FusedStep& s : f.steps) {
    if (s.a != kNoCycle) a_seen.push_back(s.a);
    if (s.b != kNoCycle) b_seen.push_back(s.b);
    if (s.merged_index != kNoCycle) {
      ASSERT_NE(s.a, kNoCycle);
      ASSERT_NE(s.b, kNoCycle);
      const ScheduleCycle& u = f.merged[s.merged_index];
      EXPECT_EQ(u.message_count, f.a->cycle(s.a).message_count +
                                     f.b->cycle(s.b).message_count);
    }
  }
  std::vector<std::size_t> want_a(a->cycle_count()), want_b(b->cycle_count());
  std::iota(want_a.begin(), want_a.end(), 0);
  std::iota(want_b.begin(), want_b.end(), 0);
  EXPECT_EQ(a_seen, want_a);
  EXPECT_EQ(b_seen, want_b);
}

TEST_F(FusionTest, CostModelTieBreaksTowardLowerMergedSpread) {
  // n = 32 puts two nodes in each of the 16 imbalance bands, so merged
  // spreads can differ. A0 receives at node 0 (band 0). B0 also lands in
  // band 0 (union spread 2); B1 lands in band 1 (union spread 1). Both
  // are port-disjoint with A0, so pure greedy pairs A0 with B0 while the
  // cost model prefers B1.
  const std::size_t n = 32;
  auto a = std::make_shared<const Schedule>(
      std::vector<ScheduleCycle>{cycle_of(n, {{0, 16}})});
  auto b = std::make_shared<const Schedule>(std::vector<ScheduleCycle>{
      cycle_of(n, {{1, 17}}), cycle_of(n, {{2, 18}})});

  const FusedSchedule greedy = fuse_schedules(a, b, n);
  ASSERT_EQ(greedy.merged_count(), 1u);
  ASSERT_EQ(greedy.steps.size(), 2u);
  EXPECT_EQ(greedy.steps[0].a, 0u);
  EXPECT_EQ(greedy.steps[0].b, 0u);  // greedy takes the first candidate

  const CycleCostModel cost;
  const FusedSchedule refined = fuse_schedules(a, b, n, &cost);
  ASSERT_EQ(refined.merged_count(), 1u);
  ASSERT_EQ(refined.steps.size(), greedy.steps.size())
      << "the refinement never changes the merge count";
  // The displaced B0 replays unfused first, then the better-balanced pair.
  EXPECT_EQ(refined.steps[0].a, kNoCycle);
  EXPECT_EQ(refined.steps[0].b, 0u);
  EXPECT_EQ(refined.steps[1].a, 0u);
  EXPECT_EQ(refined.steps[1].b, 1u);
  ASSERT_NE(refined.steps[1].merged_index, kNoCycle);
  EXPECT_EQ(refined.merged[refined.steps[1].merged_index].message_count, 2u);
}

TEST_F(FusionTest, CostModelKeepsGreedyPlanWhenAllCostsTie) {
  // n = 8 gives every node its own band, so every single-receiver merge
  // candidate has the same spread: the cost model must keep the greedy
  // pairing bit-for-bit (plan parity under ties).
  const std::size_t n = 8;
  auto a = std::make_shared<const Schedule>(std::vector<ScheduleCycle>{
      cycle_of(n, {{1, 0}}), cycle_of(n, {{2, 1}}), cycle_of(n, {{3, 2}})});
  auto b = std::make_shared<const Schedule>(std::vector<ScheduleCycle>{
      cycle_of(n, {{5, 4}}), cycle_of(n, {{1, 0}}), cycle_of(n, {{6, 7}})});

  const FusedSchedule g = fuse_schedules(a, b, n);
  const CycleCostModel cost;
  const FusedSchedule c = fuse_schedules(a, b, n, &cost);
  ASSERT_EQ(c.steps.size(), g.steps.size());
  EXPECT_EQ(c.merged_count(), g.merged_count());
  for (std::size_t s = 0; s < g.steps.size(); ++s) {
    EXPECT_EQ(c.steps[s].a, g.steps[s].a) << "step " << s;
    EXPECT_EQ(c.steps[s].b, g.steps[s].b) << "step " << s;
    EXPECT_EQ(c.steps[s].merged_index, g.steps[s].merged_index)
        << "step " << s;
  }
}

TEST_F(FusionTest, FullPermutationsNeverFuse) {
  const std::size_t n = 4;
  std::vector<std::pair<std::size_t, std::size_t>> perm;
  for (std::size_t v = 0; v < n; ++v) perm.push_back({v, v ^ 1});
  auto a = std::make_shared<const Schedule>(
      std::vector<ScheduleCycle>{cycle_of(n, perm)});
  auto b = std::make_shared<const Schedule>(
      std::vector<ScheduleCycle>{cycle_of(n, perm)});
  const FusedSchedule f = fuse_schedules(a, b, n);
  EXPECT_EQ(f.merged_count(), 0u);
  EXPECT_EQ(f.steps.size(), 2u);
  EXPECT_EQ(f.cycles_saved(), 0u);
}

// ------------------------------------------------- straggler compilation

TEST_F(FusionTest, PipelineBroadcastReplaysBitIdentical) {
  const net::DualCube d(3);
  Rng rng(11);
  std::vector<u64> chunks(9);
  for (auto& c : chunks) c = rng();

  sim::Machine record(d);
  const auto first = collectives::ring_pipeline_broadcast(record, d, 5, chunks);
  EXPECT_EQ(record.replayed_cycles(), 0u);

  sim::Machine replay(d);
  const auto second = collectives::ring_pipeline_broadcast(replay, d, 5, chunks);
  EXPECT_GT(replay.replayed_cycles(), 0u) << "second run must replay";
  EXPECT_EQ(replay.counters(), record.counters());
  EXPECT_EQ(first, second);
  for (net::NodeId u = 0; u < d.node_count(); ++u)
    ASSERT_EQ(second[u], chunks);
}

TEST_F(FusionTest, EmulatedPrefixReplaysBitIdentical) {
  const net::RecursiveDualCube r(3);
  const core::Plus<u64> op;
  Rng rng(5);
  std::vector<u64> c(r.node_count());
  for (auto& x : c) x = rng.below(1 << 20);
  const auto expected = core::seq_inclusive_scan(op, c);

  sim::Machine record(r);
  EXPECT_EQ(core::emulated_prefix(record, r, op, c), expected);
  EXPECT_EQ(record.replayed_cycles(), 0u);

  sim::Machine replay(r);
  EXPECT_EQ(core::emulated_prefix(replay, r, op, c), expected);
  EXPECT_GT(replay.replayed_cycles(), 0u) << "whole emulation must replay";
  EXPECT_EQ(replay.counters(), record.counters());
}

// ----------------------------------------------------- fused end-to-end

TEST_F(FusionTest, FusedPrefixBroadcastMatchesSequentialAndSavesCycles) {
  const net::RecursiveDualCube r(3);
  const net::NodeId root = 3;
  const auto check = [&](const auto& op, const auto& data,
                         const auto& chunks) {
    ScheduleCache::instance().clear();
    // Sequential reference results and cost.
    sim::Machine seq(r);
    const auto want_prefix = core::emulated_prefix(seq, r, op, data);
    const auto ring = net::recursive_dual_cube_hamiltonian_cycle(r);
    const auto want_received =
        collectives::ring_pipeline_broadcast(seq, ring, root, chunks);
    const auto seq_cycles = seq.counters().comm_cycles;

    // First fused call: schedules are cached (the sequential runs above
    // recorded them), so it fuses right away on a fresh machine.
    sim::Machine m(r);
    const auto out =
        collectives::fused_prefix_broadcast(m, r, op, data, root, chunks);
    ASSERT_TRUE(out.fused);
    EXPECT_GE(out.merged, 1u) << "relay cycles must overlap ring cycles";
    EXPECT_EQ(out.fused_steps, out.unfused_cycles - out.merged);
    EXPECT_EQ(out.unfused_cycles, seq_cycles);
    EXPECT_EQ(m.counters().comm_cycles, out.fused_steps)
        << "the fused stream is one comm cycle per step";
    EXPECT_LT(m.counters().comm_cycles, seq_cycles);
    EXPECT_EQ(m.replayed_cycles(), out.fused_steps);

    // Bit-identical to the sequential runs.
    EXPECT_EQ(out.prefix, want_prefix);
    EXPECT_EQ(out.received, want_received);
  };

  Rng rng(23);
  std::vector<u64> data(r.node_count());
  for (auto& x : data) x = rng.below(1 << 20);
  std::vector<u64> chunks(12);
  for (auto& c : chunks) c = rng();
  check(core::Plus<u64>{}, data, chunks);

  // A heap-owning, non-commutative V: fused steps ship 2-wide rows of
  // strings, the relay's pair cycle reading both elements.
  std::vector<std::string> words(r.node_count());
  for (std::size_t i = 0; i < words.size(); ++i)
    words[i] = std::string(1 + i % 3, static_cast<char>('a' + i % 26));
  std::vector<std::string> text(7);
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = "chunk " + std::to_string(i) + std::string(20, 'x');
  check(core::Concat{}, words, text);
}

TEST_F(FusionTest, FusedFallsBackAndRecordsOnColdCache) {
  const net::RecursiveDualCube r(2);
  const core::Plus<u64> op;
  Rng rng(3);
  std::vector<u64> data(r.node_count());
  for (auto& x : data) x = rng.below(100);
  const std::vector<u64> chunks{1, 2, 3, 4, 5};

  sim::Machine cold(r);
  const auto first =
      collectives::fused_prefix_broadcast(cold, r, op, data, 0, chunks);
  EXPECT_FALSE(first.fused) << "nothing compiled yet: sequential fallback";
  EXPECT_EQ(first.prefix, core::seq_inclusive_scan(op, data));

  // The fallback's section runs recorded both schedules: now it fuses.
  sim::Machine warm(r);
  const auto second =
      collectives::fused_prefix_broadcast(warm, r, op, data, 0, chunks);
  EXPECT_TRUE(second.fused);
  EXPECT_EQ(second.prefix, first.prefix);
  EXPECT_EQ(second.received, first.received);
  EXPECT_LT(warm.counters().comm_cycles, cold.counters().comm_cycles);
}

TEST_F(FusionTest, InterpretedMachinesNeverFuse) {
  const net::RecursiveDualCube r(2);
  const core::Plus<u64> op;
  std::vector<u64> data(r.node_count(), 1);
  const std::vector<u64> chunks{7, 8};

  // Prime the cache via a compiled machine.
  sim::Machine prime(r);
  (void)collectives::fused_prefix_broadcast(prime, r, op, data, 0, chunks);

  sim::Machine interp(r);
  interp.set_schedule_path(SchedulePath::kInterpreted);
  const auto out =
      collectives::fused_prefix_broadcast(interp, r, op, data, 0, chunks);
  EXPECT_FALSE(out.fused) << "interpreted machines take the sequential path";
  EXPECT_EQ(out.prefix, core::seq_inclusive_scan(op, data));
  EXPECT_EQ(interp.replayed_cycles(), 0u);
}

}  // namespace
}  // namespace dc::sim
