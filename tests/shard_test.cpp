// Sharded execution tests: the cluster-sharded engine must be
// observationally identical to the flat engine — same D_prefix results,
// same Counters, same per-edge loads — for every shard count, on both the
// fused and interpreted paths, with and without the out-of-core spill; its
// out-of-core runs must write exactly the bytes their window schedule
// implies; a message a degrade drop window loses must fold as the
// identity; a budget a run cannot meet must be refused with an exact
// SimError; and its steady-state runs must allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/dual_prefix.hpp"
#include "core/ops.hpp"
#include "core/sharded_prefix.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/schedule.hpp"
#include "sim/shard.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"
#include "topology/shard_plan.hpp"

// Allocation counter backing the zero-allocation steady-state test (same
// harness as sim_test.cpp: replacing the unaligned global pair covers all
// of the engine's scratch and pooled planes).
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dc::sim {
namespace {

// ---------------------------------------------------------------- plan --

TEST(ShardPlan, CoversEveryClusterExactlyOnce) {
  for (unsigned n = 1; n <= 6; ++n) {
    const net::DualCube d(n);
    for (unsigned k = 1; k <= d.clusters_per_class() * 2; k *= 2) {
      const net::ShardPlan plan(d, k);
      std::set<std::pair<unsigned, dc::u64>> seen;
      for (unsigned s = 0; s < k; ++s) {
        EXPECT_EQ(plan.shard_clusters(s).size(), plan.clusters_per_shard());
        for (const auto& c : plan.shard_clusters(s)) {
          EXPECT_EQ(plan.shard_of_cluster(c.cls, c.cluster), s);
          EXPECT_TRUE(seen.emplace(c.cls, c.cluster).second)
              << "cluster assigned twice (n=" << n << " K=" << k << ")";
        }
      }
      EXPECT_EQ(seen.size(), plan.clusters_total())
          << "clusters missing (n=" << n << " K=" << k << ")";
    }
  }
}

TEST(ShardPlan, LocalGlobalRoundTripAndDataContiguity) {
  for (unsigned n = 2; n <= 5; ++n) {
    const net::DualCube d(n);
    for (unsigned k : {1u, 2u, 4u}) {
      const net::ShardPlan plan(d, k);
      for (net::NodeId u = 0; u < d.node_count(); ++u) {
        const unsigned s = plan.shard_of_node(u);
        const net::NodeId l = plan.local_index(u);
        EXPECT_LT(l, plan.shard_node_count());
        EXPECT_EQ(plan.global_node(s, l), u);
        // The property the streaming front-end rests on: shard s's local
        // index l holds global data index s * shard_nodes + l.
        EXPECT_EQ(core::dual_prefix_index_of_node(d, u),
                  dc::u64{s} * plan.shard_node_count() + l);
      }
    }
  }
}

TEST(ShardPlan, RejectsInvalidShardCounts) {
  const net::DualCube d(3);  // 2^3 = 8 clusters across both classes
  EXPECT_THROW(net::ShardPlan(d, 0), dc::CheckError);
  EXPECT_THROW(net::ShardPlan(d, 3), dc::CheckError);
  EXPECT_THROW(net::ShardPlan(d, 16), dc::CheckError);
  EXPECT_NO_THROW(net::ShardPlan(d, 8));
}

TEST(ShardClusterTopology, EdgesStayInsideClusterBlocks) {
  const net::ShardClusterTopology t(2, 3);  // 3 blocks of a 2-cube
  EXPECT_EQ(t.node_count(), 12u);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(5, 7));
  EXPECT_FALSE(t.has_edge(3, 4));  // adjacent labels, different blocks
  EXPECT_FALSE(t.has_edge(0, 0));
  for (net::NodeId u = 0; u < t.node_count(); ++u) {
    EXPECT_EQ(t.neighbors(u).size(), 2u);
    for (const net::NodeId v : t.neighbors(u)) {
      EXPECT_TRUE(t.has_edge(u, v));
      EXPECT_EQ(u >> 2, v >> 2) << "edge crossed a cluster block";
    }
  }
}

// -------------------------------------------------------------- parity --

// Flat-engine reference for one run, with counters and per-edge loads.
template <core::Monoid M>
struct FlatRun {
  std::vector<typename M::value_type> result;
  Counters counters;
  std::vector<std::uint64_t> loads;
};

template <core::Monoid M>
FlatRun<M> flat_reference(const net::DualCube& d, const M& op,
                          const std::vector<typename M::value_type>& data,
                          bool inclusive, bool edge_load) {
  Machine m(d);
  if (edge_load) m.enable_edge_load();
  FlatRun<M> run;
  run.result = core::dual_prefix(m, d, op, data, {}, inclusive);
  run.counters = m.counters();
  if (edge_load) {
    for (net::NodeId u = 0; u < d.node_count(); ++u) {
      for (const net::NodeId v : d.neighbors(u)) {
        run.loads.push_back(m.edge_load(u, v));
      }
    }
  }
  return run;
}

template <core::Monoid M>
void expect_shard_parity(const net::DualCube& d, const M& op,
                         const std::vector<typename M::value_type>& data,
                         bool inclusive) {
  const FlatRun<M> ref = flat_reference(d, op, data, inclusive, false);
  for (unsigned k : {1u, 2u, 4u}) {
    ShardEngine eng(d, k);
    const auto got = core::sharded_dual_prefix(eng, op, data, inclusive);
    EXPECT_EQ(got, ref.result) << "K=" << k;
    EXPECT_EQ(eng.counters(), ref.counters) << "K=" << k;
    // Shard machines either fuse or interpret their cycles; neither replays.
    EXPECT_EQ(eng.machine(0).replayed_cycles(), 0u) << "K=" << k;
  }
}

TEST(ShardedDualPrefix, MatchesFlatEngineBitIdentically) {
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(7);
  for (auto& v : data) v = rng();
  expect_shard_parity(d, core::Plus<dc::u64>{}, data, true);
  expect_shard_parity(d, core::Plus<dc::u64>{}, data, false);
  expect_shard_parity(d, core::Xor<dc::u64>{}, data, true);
  std::vector<dc::u64> small(data.begin(), data.end());
  for (auto& v : small) v %= 97;
  expect_shard_parity(d, core::Min<dc::u64>{}, small, true);
  // Mat2 is plane-eligible and not commutative, so a swapped operand in
  // the resident fused sweep or the per-cluster Pass B folds shows.
  std::vector<core::Mat2::value_type> mats(d.node_count());
  for (auto& m : mats) m = {rng(), rng(), rng(), rng()};
  expect_shard_parity(d, core::Mat2{}, mats, true);
  expect_shard_parity(d, core::Mat2{}, mats, false);
}

TEST(ShardedDualPrefix, MatchesFlatEngineForNonCommutativeMonoid) {
  // Concat is not plane-eligible, so every cycle interprets — and its
  // results expose any ordering mistake in the compact exchange algebra.
  const net::DualCube d(2);
  std::vector<std::string> data(d.node_count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::string(1, static_cast<char>('a' + (i % 26)));
    data[i] += std::to_string(i);
  }
  expect_shard_parity(d, core::Concat{}, data, true);
  expect_shard_parity(d, core::Concat{}, data, false);
}

TEST(ShardedDualPrefix, InterpretedSchedulePathForcesInterpretedCycles) {
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(11);
  for (auto& v : data) v = rng();
  const core::Plus<dc::u64> op;
  const FlatRun<core::Plus<dc::u64>> ref =
      flat_reference(d, op, data, true, false);
  for (unsigned k : {1u, 2u, 4u}) {
    ShardEngine eng(d, k);
    for (unsigned s = 0; s < k; ++s) {
      eng.machine(s).set_schedule_path(SchedulePath::kInterpreted);
    }
    const auto got = core::sharded_dual_prefix(eng, op, data);
    EXPECT_EQ(got, ref.result) << "K=" << k;
    EXPECT_EQ(eng.counters(), ref.counters) << "K=" << k;
    EXPECT_EQ(eng.machine(0).replayed_cycles(), 0u);
  }
}

TEST(ShardedDualPrefix, EdgeLoadsMatchFlatEngine) {
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(13);
  for (auto& v : data) v = rng();
  const core::Plus<dc::u64> op;
  const FlatRun<core::Plus<dc::u64>> ref =
      flat_reference(d, op, data, true, true);
  for (unsigned k : {1u, 2u, 4u}) {
    ShardEngine eng(d, k);
    eng.enable_edge_load();
    const auto got = core::sharded_dual_prefix(eng, op, data);
    EXPECT_EQ(got, ref.result) << "K=" << k;
    EXPECT_EQ(eng.counters(), ref.counters) << "K=" << k;
    std::vector<std::uint64_t> loads;
    for (net::NodeId u = 0; u < d.node_count(); ++u) {
      for (const net::NodeId v : d.neighbors(u)) {
        loads.push_back(eng.edge_load(u, v));
      }
    }
    EXPECT_EQ(loads, ref.loads) << "K=" << k;
  }
}

TEST(ShardedDualPrefix, RepeatedRunsAccumulateCountersLikeFlat) {
  const net::DualCube d(2);
  std::vector<dc::u64> data(d.node_count());
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i + 1;
  const core::Plus<dc::u64> op;
  Machine m(d);
  ShardEngine eng(d, 2);
  for (int r = 0; r < 3; ++r) {
    const auto want = core::dual_prefix(m, d, op, data);
    const auto got = core::sharded_dual_prefix(eng, op, data);
    EXPECT_EQ(got, want);
    EXPECT_EQ(eng.counters(), m.counters());
  }
  EXPECT_EQ(eng.stats().runs, 3u);
  eng.reset_counters();
  EXPECT_EQ(eng.counters(), Counters{});
  EXPECT_EQ(eng.stats().runs, 0u);
}

// --------------------------------------------------------------- spill --

// A budget between working_bytes and working + store for a 4-shard engine.
std::size_t eng_budget(const net::DualCube& d) {
  const net::ShardPlan plan(d, 4);
  const std::size_t shard_n = plan.shard_node_count();
  return shard_n * (3 * sizeof(dc::u64) + 8) + shard_n;  // working + slack
}

TEST(ShardedDualPrefix, SpillingRunMatchesResidentRun) {
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(17);
  for (auto& v : data) v = rng();
  const core::Plus<dc::u64> op;
  const FlatRun<core::Plus<dc::u64>> ref =
      flat_reference(d, op, data, true, false);

  // Budget above one shard's working set but below working + store: the
  // run must take the out-of-core path and still match exactly.
  ShardEngine eng(d, 4, eng_budget(d));
  ASSERT_TRUE(eng.will_spill(sizeof(dc::u64)));
  const auto got = core::sharded_dual_prefix(eng, op, data);
  EXPECT_EQ(got, ref.result);
  EXPECT_EQ(eng.counters(), ref.counters);
  EXPECT_TRUE(eng.stats().last_run_spilled);
  EXPECT_EQ(eng.stats().spill_count, 4u);
  EXPECT_EQ(eng.stats().spill_bytes,
            dc::u64{d.node_count()} * sizeof(dc::u64));

  // Mat2 (32 bytes, not commutative): working = 8 * 104 = 832 bytes and
  // working + store = 1856, so a 1000-byte budget spills the result store
  // without going out of core.
  using Mat = core::Mat2::value_type;
  std::vector<Mat> mats(d.node_count());
  for (auto& m : mats) m = {rng(), rng(), rng(), rng()};
  for (const bool inclusive : {true, false}) {
    const FlatRun<core::Mat2> mref =
        flat_reference(d, core::Mat2{}, mats, inclusive, false);
    ShardEngine meng(d, 4, 1000);
    ASSERT_TRUE(meng.will_spill(sizeof(Mat)));
    ASSERT_FALSE(meng.out_of_core(sizeof(Mat)));
    EXPECT_EQ(core::sharded_dual_prefix(meng, core::Mat2{}, mats, inclusive),
              mref.result);
    EXPECT_EQ(meng.counters(), mref.counters);
    EXPECT_TRUE(meng.stats().last_run_spilled);
    EXPECT_EQ(meng.stats().spill_count, 4u);
    EXPECT_EQ(meng.stats().spill_bytes, dc::u64{d.node_count()} * sizeof(Mat));
  }
}

// Bytes an out-of-core run writes to the spill file, from its window
// schedule. Window order alternates per cycle, ascending first, and the
// window a cycle ends on stays resident: each cycle i < n-2 writes s plus
// the compact totals (one per 2^(i+1)-node group) of every other window;
// the last cycle writes every window's s; step 4, run backward, writes
// back every window but window 0, where step 5 starts.
std::uint64_t streamed_spill_bytes(const ShardEngine& eng, std::size_t elem) {
  const std::uint64_t shard_n = eng.shard_nodes();
  const std::uint64_t win = eng.oc_window_nodes(elem);
  const std::uint64_t last_len = shard_n - (shard_n - 1) / win * win;
  const unsigned w = eng.dual_cube().order() - 1;
  std::uint64_t elems = 0;  // per shard
  for (unsigned i = 0; i + 1 < w; ++i) {
    const std::uint64_t moved = shard_n - (i % 2 == 0 ? last_len : win);
    elems += moved + (moved >> (i + 1));
  }
  elems += shard_n + (shard_n - win);
  return elems * elem * eng.shard_count();
}

template <core::Monoid M>
void expect_out_of_core_parity(const net::DualCube& d, const M& op,
                               const std::vector<typename M::value_type>& data,
                               std::initializer_list<std::size_t> budgets,
                               std::initializer_list<unsigned> shard_counts) {
  using V = typename M::value_type;
  for (const bool inclusive : {true, false}) {
    const FlatRun<M> ref = flat_reference(d, op, data, inclusive, false);
    for (const std::size_t budget : budgets) {
      for (const unsigned k : shard_counts) {
        ShardEngine eng(d, k, budget);
        ASSERT_TRUE(eng.out_of_core(sizeof(V)));
        const auto got = core::sharded_dual_prefix(eng, op, data, inclusive);
        EXPECT_EQ(got, ref.result) << "K=" << k << " budget=" << budget;
        EXPECT_EQ(eng.counters(), ref.counters)
            << "K=" << k << " budget=" << budget;
        EXPECT_TRUE(eng.stats().last_run_out_of_core);
        EXPECT_EQ(eng.stats().spill_bytes, streamed_spill_bytes(eng, sizeof(V)))
            << "K=" << k << " budget=" << budget;
      }
    }
  }
}

TEST(ShardedDualPrefix, OutOfCoreRunMatchesResidentRun) {
  const net::DualCube d(4);  // csize = 8, N = 128
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(29);
  for (auto& v : data) v = rng();
  // Budgets below even one shard's working set but above the one-cluster
  // streaming floor (4*8*csize = 256): the whole run streams
  // cycle-by-cycle out of core. 512 gives whole-shard-dividing windows;
  // 768 gives a 3-cluster window that tiles shards raggedly.
  expect_out_of_core_parity(d, core::Plus<dc::u64>{}, data, {512, 768},
                            {1, 2, 4});
  // The traffic closed form, worked once by hand: on 4 shards, 768 bytes
  // stream 32-node shards through windows of 24 and 8 nodes. Per shard,
  // cycle 0 writes window 0 (24 s + 12 totals), cycle 1 window 1 (8 s +
  // 2 totals), cycle 2 all 32 s and step 4 window 1's 8: 86 elements.
  EXPECT_EQ(streamed_spill_bytes(ShardEngine(d, 4, 768), sizeof(dc::u64)),
            86u * 8 * 4);
  // Mat2 (32 bytes) is plane-eligible and not commutative, so a swapped
  // operand in the compact kernel shows. 2048 gives a whole-dividing
  // 16-node window, 3072 a ragged 24-node one.
  std::vector<core::Mat2::value_type> mats(d.node_count());
  for (auto& m : mats) m = {rng(), rng(), rng(), rng()};
  expect_out_of_core_parity(d, core::Mat2{}, mats, {2048, 3072}, {1, 2, 4});
}

TEST(ShardedDualPrefix, SingleWindowShardStaysResidentAcrossCycles) {
  // 4-byte values on D_4 over 2 shards: working_bytes = 64 * 20 = 1280,
  // and any budget in [1024, 1280) streams out of core through one
  // 64-node window per shard. The shard never leaves the buffer during
  // Pass A, so only the last cycle's s reaches the spill file: N * 4.
  const net::DualCube d(4);
  std::vector<std::uint32_t> data(d.node_count());
  dc::Rng rng(37);
  for (auto& v : data) v = static_cast<std::uint32_t>(rng());
  for (const std::size_t budget : {std::size_t{1024}, std::size_t{1279}}) {
    const ShardEngine eng(d, 2, budget);
    ASSERT_EQ(eng.oc_window_nodes(sizeof(std::uint32_t)), eng.shard_nodes());
    EXPECT_EQ(streamed_spill_bytes(eng, sizeof(std::uint32_t)),
              dc::u64{d.node_count()} * sizeof(std::uint32_t));
  }
  expect_out_of_core_parity(d, core::Plus<std::uint32_t>{}, data, {1024, 1279},
                            {2});
}

// ------------------------------------------------------------ faults --

TEST(ShardedDualPrefix, LostMessagesFoldAsIdentity) {
  // A degrade drop window over all of Pass A's n-1 cycles loses every
  // in-cluster message, so each node keeps its own input as t and each
  // cluster's total is its first input. The result is then a closed form:
  // index i gets the first input of every earlier cluster, in index
  // order, then (inclusive only) its own input.
  const net::DualCube d(3);
  const unsigned n = d.order();
  const dc::u64 csize = dc::u64{1} << (n - 1);
  std::vector<std::string> data(d.node_count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::string(1, static_cast<char>('a' + i % 26)) +
              std::to_string(i) + ";";
  const core::Concat op;
  FaultTimeline tl(41);
  tl.drop_window(1000, 0, n - 1);
  for (const bool inclusive : {true, false}) {
    std::vector<std::string> want(data.size());
    std::string firsts;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (i % csize == 0 && i > 0) firsts += data[i - csize];
      want[i] = inclusive ? firsts + data[i] : firsts;
    }
    for (unsigned k : {1u, 2u, 4u}) {
      ShardEngine eng(d, k);
      eng.attach_faults(tl, FaultPolicy::kDegrade);
      EXPECT_EQ(core::sharded_dual_prefix(eng, op, data, inclusive), want)
          << "K=" << k << " inclusive=" << inclusive;
      EXPECT_EQ(eng.counters().messages_lost,
                dc::u64{d.node_count()} * (n - 1))
          << "K=" << k;
    }
  }
}

TEST(ShardedDualPrefix, RefusesBudgetBelowStreamingWindow) {
  // 16 bytes is below even one cluster's out-of-core window
  // (oc_floor_bytes = 4 * 8 * csize = 128 for D_3), so not even the
  // streaming path can run.
  const net::DualCube d(3);
  ShardEngine eng(d, 2, /*mem_budget_bytes=*/16);
  std::vector<dc::u64> data(d.node_count(), 1);
  EXPECT_THROW(core::sharded_dual_prefix(eng, core::Plus<dc::u64>{}, data),
               dc::CheckError);
}

TEST(ShardedDualPrefix, RefusesSpillForNonTrivialPayload) {
  const net::DualCube d(2);
  // Budget forces a spill, but strings cannot stream bytewise.
  ShardEngine eng(d, 4, /*mem_budget_bytes=*/
                  net::ShardPlan(d, 4).shard_node_count() *
                      (3 * sizeof(std::string) + 8));
  std::vector<std::string> data(d.node_count(), "x");
  ASSERT_TRUE(eng.will_spill(sizeof(std::string)));
  EXPECT_THROW(core::sharded_dual_prefix(eng, core::Concat{}, data),
               dc::CheckError);
}

TEST(ShardedDualPrefix, RefusalsCarryExactMessages) {
  // A budget a run cannot meet throws SimError whose what() is the remedy
  // alone, with no check expression or source path in it.
  const auto refusal = [](auto&& run) -> std::string {
    try {
      run();
    } catch (const SimError& e) {
      return e.what();
    } catch (const dc::CheckError& e) {
      return std::string("not a SimError: ") + e.what();
    }
    return "no refusal";
  };
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count(), 1);
  ShardEngine tiny(d, 2, /*mem_budget_bytes=*/16);
  EXPECT_EQ(refusal([&] {
              core::sharded_dual_prefix(tiny, core::Plus<dc::u64>{}, data);
            }),
            "memory budget is below even one cluster's out-of-core "
            "streaming window; raise the budget");
  // 200 bytes is below the 512-byte shard working set and above the
  // 128-byte streaming floor: out of core, which the interpreted schedule
  // path cannot run.
  ShardEngine interp(d, 2, /*mem_budget_bytes=*/200);
  for (unsigned k = 0; k < interp.shard_count(); ++k)
    interp.machine(k).set_schedule_path(SchedulePath::kInterpreted);
  EXPECT_EQ(refusal([&] {
              core::sharded_dual_prefix(interp, core::Plus<dc::u64>{}, data);
            }),
            "out-of-core streaming requires the fused exchange path "
            "(plane-eligible payload, compiled schedule path, no edge "
            "loads); raise the budget otherwise");
  const net::DualCube d2(2);
  ShardEngine strings(d2, 4, /*mem_budget_bytes=*/
                      net::ShardPlan(d2, 4).shard_node_count() *
                          (3 * sizeof(std::string) + 8));
  std::vector<std::string> words(d2.node_count(), "x");
  EXPECT_EQ(refusal([&] {
              core::sharded_dual_prefix(strings, core::Concat{}, words);
            }),
            "this payload type cannot spill out of core (not trivially "
            "copyable); raise the memory budget");
}

// ---------------------------------------------------------- allocation --

TEST(ShardedDualPrefix, SteadyStateRunsAllocateNothing) {
  const net::DualCube d(4);
  std::vector<dc::u64> data(d.node_count());
  dc::Rng rng(23);
  for (auto& v : data) v = rng();
  const core::Plus<dc::u64> op;
  ShardEngine eng(d, 4);
  std::vector<dc::u64> out(d.node_count());
  const auto run = [&] {
    core::sharded_dual_prefix(
        eng, op, [&](dc::u64 i) -> const dc::u64& { return data[i]; },
        [&](dc::u64 base, const dc::u64* values, std::size_t count) {
          std::copy(values, values + count,
                  out.begin() + static_cast<std::ptrdiff_t>(base));
        });
  };
  run();  // warm-up: sizes scratch and pools planes
  const std::uint64_t before = g_allocation_count.load();
  run();
  run();
  EXPECT_EQ(g_allocation_count.load(), before)
      << "steady-state sharded runs must not allocate";
  Machine m(d);
  EXPECT_EQ(core::dual_prefix(m, d, op, data),
            [&] { run(); return out; }());
}

// -------------------------------------------------------------- memory --

TEST(ShardEngine, MemoryModelIsMonotoneInShardCount) {
  const net::DualCube d(5);
  std::size_t prev = SIZE_MAX;
  for (unsigned k : {1u, 2u, 4u, 8u}) {
    ShardEngine eng(d, k, /*mem_budget_bytes=*/1);  // budget irrelevant here
    const std::size_t w = eng.working_bytes(8);
    EXPECT_LT(w, prev) << "working set must shrink with more shards";
    prev = w;
    EXPECT_EQ(eng.store_bytes(8), dc::u64{d.node_count()} * 8);
  }
}

TEST(ShardEngine, StatsTrackCompactExchangeTraffic) {
  const net::DualCube d(3);
  std::vector<dc::u64> data(d.node_count(), 2);
  ShardEngine eng(d, 2);
  core::sharded_dual_prefix(eng, core::Plus<dc::u64>{}, data);
  const net::ShardPlan& plan = eng.plan();
  EXPECT_EQ(eng.stats().cross_edge_bytes,
            (2 * plan.clusters_total() + 1) * sizeof(dc::u64));
  EXPECT_EQ(eng.stats().spill_count, 0u);
  EXPECT_FALSE(eng.stats().last_run_spilled);
}

}  // namespace
}  // namespace dc::sim
