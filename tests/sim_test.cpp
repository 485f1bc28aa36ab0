// Simulator tests: the machine enforces the paper's communication model
// (messages travel only along links; each node sends <= 1 and receives <= 1
// per cycle) and counts steps faithfully.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/block_sort.hpp"
#include "core/formulas.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/oblivious.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"
#include "topology/recursive_dual_cube.hpp"

// Allocation counters backing the zero-allocation steady-state tests below.
// Replacing the global (unaligned) operator new/delete pair is enough: all
// of the simulator's scratch — vectors of optionals, the atomic claim
// arrays, the pooled inbox buffers — goes through these.
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
}  // namespace

namespace {
void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// GCC pairs allocation with deallocation functions by name and warns that
// our replacements hand malloc'd pointers to free; that pairing is the
// whole point here, so silence the check for these definitions.
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

TEST(Machine, DeliversAlongEdges) {
  const net::Hypercube q(3);
  Machine m(q);
  auto inbox = m.comm_cycle<int>([&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 0), static_cast<int>(u)};
  });
  for (net::NodeId u = 0; u < q.node_count(); ++u) {
    ASSERT_TRUE(inbox[u].has_value());
    EXPECT_EQ(*inbox[u], static_cast<int>(bits::flip(u, 0)));
  }
  EXPECT_EQ(m.counters().comm_cycles, 1u);
  EXPECT_EQ(m.counters().messages, q.node_count());
}

TEST(Machine, RejectsNonEdgeSend) {
  const net::Hypercube q(3);
  Machine m(q);
  EXPECT_THROW(m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
                 if (u != 0) return std::nullopt;
                 return Send<int>{3, 1};  // 0 -> 3 differs in two bits
               }),
               SimError);
}

TEST(Machine, RejectsOutOfRangeDestination) {
  const net::Hypercube q(2);
  Machine m(q);
  EXPECT_THROW(m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
                 if (u != 0) return std::nullopt;
                 return Send<int>{99, 1};
               }),
               SimError);
}

TEST(Machine, RejectsDoubleReceive) {
  const net::Hypercube q(2);  // node 0 has neighbors 1 and 2
  Machine m(q);
  EXPECT_THROW(m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
                 if (u == 1 || u == 2) return Send<int>{0, 7};
                 return std::nullopt;
               }),
               SimError);
}

TEST(Machine, RejectsSelfSend) {
  const net::Hypercube q(2);
  Machine m(q);
  EXPECT_THROW(m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
                 if (u != 0) return std::nullopt;
                 return Send<int>{0, 1};
               }),
               SimError);
}

TEST(Machine, ValidationCanBeDisabled) {
  const net::Hypercube q(3);
  Machine m(q, /*validate=*/false);
  // Non-edge send passes (port discipline still applies).
  auto inbox = m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
    if (u != 0) return std::nullopt;
    return Send<int>{7, 5};
  });
  EXPECT_TRUE(inbox[7].has_value());
}

TEST(Machine, CountsComputeStepsAndOps) {
  const net::Hypercube q(3);
  Machine m(q);
  m.compute_step([&](net::NodeId) { m.add_ops(1); });
  m.compute_step([&](net::NodeId) {});
  const auto c = m.counters();
  EXPECT_EQ(c.comp_steps, 2u);
  EXPECT_EQ(c.ops, q.node_count());
  EXPECT_EQ(c.comm_cycles, 0u);
}

TEST(Machine, ForEachNodeIsUncounted) {
  const net::Hypercube q(2);
  Machine m(q);
  int touched = 0;
  m.for_each_node([&](net::NodeId) { ++touched; });
  EXPECT_EQ(touched, 4);
  EXPECT_EQ(m.counters(), Counters{});
}

TEST(Machine, ResetClearsCounters) {
  const net::Hypercube q(2);
  Machine m(q);
  m.compute_step([](net::NodeId) {});
  m.comm_cycle<int>([&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 0), 0};
  });
  m.reset_counters();
  EXPECT_EQ(m.counters(), Counters{});
}

TEST(Machine, TraceRecordsPerCycleMessageCounts) {
  const net::Hypercube q(2);
  Machine m(q);
  m.enable_trace();
  m.comm_cycle<int>([&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 0), 0};
  });
  m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
    if (u != 0) return std::nullopt;
    return Send<int>{1, 0};
  });
  ASSERT_EQ(m.messages_per_cycle().size(), 2u);
  EXPECT_EQ(m.messages_per_cycle()[0], 4u);
  EXPECT_EQ(m.messages_per_cycle()[1], 1u);
}

TEST(Machine, PairwiseExchangeOnDualCubeCross) {
  const net::DualCube d(3);
  Machine m(d);
  auto inbox = m.comm_cycle<net::NodeId>([&](net::NodeId u) {
    return Send<net::NodeId>{d.cross_neighbor(u), u};
  });
  for (net::NodeId u = 0; u < d.node_count(); ++u) {
    ASSERT_TRUE(inbox[u].has_value());
    EXPECT_EQ(*inbox[u], d.cross_neighbor(u));
  }
}

TEST(Machine, NonEdgeSendMessageIsExact) {
  const net::Hypercube q(3);
  Machine m(q);
  try {
    m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
      if (u != 0) return std::nullopt;
      return Send<int>{3, 1};  // 0 -> 3 differs in two bits
    });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent to 3 but Q_3 has no such link");
  }
}

TEST(Machine, OutOfRangeSendMessageIsExact) {
  const net::Hypercube q(2);
  Machine m(q);
  try {
    m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
      if (u != 1) return std::nullopt;
      return Send<int>{99, 1};
    });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "node 1 sent to out-of-range node 99");
  }
}

TEST(Machine, OnePortViolationReportsLowestSenderPair) {
  const net::Hypercube q(3);
  Machine m(q);
  // Nodes 1, 2 and 4 all target node 0. The violation re-scan walks senders
  // in ascending order, so node 1 claims port 0 first and the conflict is
  // charged to receiver 0 — the same message every time.
  try {
    m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
      if (u == 1 || u == 2 || u == 4) return Send<int>{0, 7};
      return std::nullopt;
    });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(
        e.what(),
        "1-port violation: node 0 would receive two messages in one cycle");
  }
}

TEST(Machine, OnePortViolationIsDeterministicUnderConcurrency) {
  const net::Hypercube q(5);
  ThreadPool pool(4);
  Machine m(q);
  m.set_thread_pool(&pool);
  m.set_parallel_grain(1);  // force parallel delivery even for 32 nodes
  // Every node > 0 sends to itself with the lowest set bit cleared (always
  // a hypercube edge). Node 0 is targeted by all five powers of two, nodes
  // like 2 by one sender — plenty of conflicts racing across workers. The
  // reported violation must nevertheless be the one the sequential re-scan
  // finds first, independent of thread interleaving.
  for (int rep = 0; rep < 10; ++rep) {
    try {
      m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
        if (u == 0) return std::nullopt;
        return Send<int>{u & (u - 1), 1};
      });
      FAIL() << "expected SimError";
    } catch (const SimError& e) {
      EXPECT_STREQ(
          e.what(),
          "1-port violation: node 0 would receive two messages in one cycle");
    }
  }
}

TEST(Machine, EdgeLoadCountsUnderConcurrentDelivery) {
  const net::Hypercube q(6);
  ThreadPool pool(4);
  Machine m(q);
  m.set_thread_pool(&pool);
  m.set_parallel_grain(1);  // force parallel delivery
  m.enable_edge_load();
  constexpr std::uint64_t kRounds = 5;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      m.comm_cycle<int>(
          [&](net::NodeId u) { return Send<int>{q.neighbor(u, i), 0}; });
    }
  }
  for (net::NodeId u = 0; u < q.node_count(); ++u) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      EXPECT_EQ(m.edge_load(u, q.neighbor(u, i)), kRounds);
    }
  }
  EXPECT_EQ(m.edge_load(0, 3), 0u);  // not an edge
}

// A fused exchange+combine cycle inlines small sweeps exactly like
// compute_step: at the default grain, a cycle over at most
// kParallelInlineThreshold nodes runs every block on the caller, however
// many blocks it is cut into. (Each block range sleeps so that a sweep
// which did fan out would hand some ranges to the waiting workers.)
TEST(Machine, FusedCycleInlinesUpToTheNodeThreshold) {
  const net::Hypercube q(11);
  ASSERT_EQ(q.node_count(), kParallelInlineThreshold);
  ThreadPool pool(3);
  Machine m(q);
  m.set_thread_pool(&pool);
  for (const std::size_t blocks : {std::size_t{2}, std::size_t{64},
                                   std::size_t{2048}}) {
    std::atomic<std::size_t> covered{0};
    std::atomic<std::size_t> off_caller{0};
    m.comm_compute_cycle_fused_blocks(
        blocks, [&](std::size_t b_lo, std::size_t b_hi) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          covered += b_hi - b_lo;
          if (pool.worker_slot() != 0) off_caller += b_hi - b_lo;
        });
    EXPECT_EQ(covered.load(), blocks);
    EXPECT_EQ(off_caller.load(), 0u) << blocks << " blocks";
  }
  std::atomic<std::size_t> step_off_caller{0};
  m.compute_step([&](net::NodeId) {
    if (pool.worker_slot() != 0) ++step_off_caller;
  });
  EXPECT_EQ(step_off_caller.load(), 0u);
  EXPECT_EQ(m.counters().comm_cycles, 3u);
  EXPECT_EQ(m.counters().comp_steps, 4u);
}

TEST(Machine, ConcurrentlyLiveInboxesKeepDistinctStorage) {
  const net::Hypercube q(2);
  Machine m(q);
  auto first = m.comm_cycle<int>([&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 0), static_cast<int>(u)};
  });
  auto second = m.comm_cycle<int>([&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 1), static_cast<int>(u) + 100};
  });
  for (net::NodeId u = 0; u < q.node_count(); ++u) {
    ASSERT_TRUE(first[u].has_value());
    ASSERT_TRUE(second[u].has_value());
    EXPECT_EQ(*first[u], static_cast<int>(bits::flip(u, 0)));
    EXPECT_EQ(*second[u], static_cast<int>(bits::flip(u, 1)) + 100);
  }
}

TEST(Machine, SteadyStateCommCycleDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  // Warm-up builds the adjacency snapshot, the typed arena and one pooled
  // inbox buffer; every later cycle must reuse them.
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
      return Send<std::uint64_t>{q.neighbor(u, i), u};
    });
  }
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
        return Send<std::uint64_t>{q.neighbor(u, i), u + 1};
      });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        delivered += inbox[u].has_value() ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
}

TEST(Machine, SteadyStateCommCycleWithTracingDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  // The recorder's rings are allocated here, before the counted region;
  // every traced event after warm-up is stores into preallocated memory.
  m.enable_trace();
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
      return Send<std::uint64_t>{q.neighbor(u, i), u};
    });
  }
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
        return Send<std::uint64_t>{q.neighbor(u, i), u + 1};
      });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        delivered += inbox[u].has_value() ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
  // Query only after the allocation assertion: the compatibility view
  // itself builds a vector.
  EXPECT_EQ(m.messages_per_cycle().size(), 5u * q.dimensions());
}

TEST(Machine, SteadyStateCommCycleWithMetricsArmedDoesNotAllocate) {
  MetricsRegistry::arm();
  const net::Hypercube q(6);
  // Constructed while armed: the machine resolves its histogram/counter
  // pointers now; per-cycle updates are relaxed atomic ops on them.
  Machine m(q);
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
      return Send<std::uint64_t>{q.neighbor(u, i), u};
    });
  }
  const auto& hist = MetricsRegistry::instance().histogram(
      "sim.messages_per_cycle", Histogram::pow2_bounds(24));
  const std::uint64_t observed_before = hist.count();
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = m.comm_cycle<std::uint64_t>([&](net::NodeId u) {
        return Send<std::uint64_t>{q.neighbor(u, i), u + 1};
      });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        delivered += inbox[u].has_value() ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  MetricsRegistry::disarm();
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
  EXPECT_EQ(hist.count(), observed_before + 4u * q.dimensions());
}

TEST(Machine, ScheduledReplayDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  // Record the rotating-dimension exchange once (cache key built here, so
  // its strings stay outside the counted loop) and fetch the compiled
  // schedule; warm-up also pools the inbox buffer.
  ObliviousSection section(m, "sim_test_scheduled_alloc", {});
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = section.exchange<std::uint64_t>(
        [&](net::NodeId u) { return q.neighbor(u, i); },
        [](net::NodeId u) { return u; });
  }
  section.commit();
  const auto schedule = ScheduleCache::instance().find(section.key());
  ASSERT_NE(schedule, nullptr);
  ASSERT_EQ(schedule->cycle_count(), q.dimensions());
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), 1,
          [](net::NodeId u, std::uint64_t* dst) { *dst = u + 1; });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        delivered += inbox.has(u) ? 1u : 0u;
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
}

TEST(Machine, ScheduledBlockReplayDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  constexpr std::size_t kWidth = 8;
  const auto src = [](net::NodeId u, std::uint64_t* dst) {
    for (std::size_t k = 0; k < kWidth; ++k) dst[k] = u + k;
  };
  // Record the rotating-dimension block exchange once, fetch the compiled
  // schedule, then run one replay pass so the pooled plane reaches its
  // high-water size. Every counted iteration after that must reuse it.
  ObliviousSection section(m, "sim_test_block_alloc", {});
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = section.exchange_blocks<std::uint64_t>(
        kWidth, [&](net::NodeId u) { return q.neighbor(u, i); }, src);
  }
  section.commit();
  const auto schedule = ScheduleCache::instance().find(section.key());
  ASSERT_NE(schedule, nullptr);
  ASSERT_EQ(schedule->cycle_count(), q.dimensions());
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto warm = m.comm_cycle_scheduled_blocks<std::uint64_t>(
        schedule->cycle(i), kWidth, src);
  }
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), kWidth,
          [](net::NodeId u, std::uint64_t* dst) {
            for (std::size_t k = 0; k < kWidth; ++k) dst[k] = u + k + 1;
          });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        if (!inbox.has(u)) continue;
        ++delivered;
        EXPECT_EQ(inbox.block(u)[0], bits::flip(u, i) + 1);
        EXPECT_EQ(inbox.block(u)[kWidth - 1], bits::flip(u, i) + kWidth);
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
}

// Interpreted block exchanges ship sender ids, not per-message block
// copies, so the fully validated path is allocation-free in steady state
// too.
TEST(Machine, InterpretedBlockExchangeDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kInterpreted);
  static constexpr std::size_t kWidth = 8;
  // An interpreted section records nothing, so one section serves every
  // cycle and its name is built outside the counted loop.
  ObliviousSection section(m, "sim_test_interp_block_alloc", {});
  const auto cycle = [&](unsigned i, std::uint64_t salt) {
    return section.exchange_blocks<std::uint64_t>(
        kWidth, [&](net::NodeId u) { return q.neighbor(u, i); },
        [salt](net::NodeId u, std::uint64_t* dst) {
          for (std::size_t k = 0; k < kWidth; ++k) dst[k] = u + k + salt;
        });
  };
  for (unsigned i = 0; i < q.dimensions(); ++i) auto warm = cycle(i, 0);
  const std::uint64_t before = g_allocation_count.load();
  std::uint64_t delivered = 0;
  for (unsigned rep = 0; rep < 4; ++rep) {
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = cycle(i, 1);
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        if (!inbox.has(u)) continue;
        ++delivered;
        EXPECT_EQ(inbox.block(u)[0], bits::flip(u, i) + 1);
        EXPECT_EQ(inbox.block(u)[kWidth - 1], bits::flip(u, i) + kWidth);
      }
    }
  }
  EXPECT_EQ(g_allocation_count.load(), before);
  EXPECT_EQ(delivered, 4u * q.dimensions() * q.node_count());
  EXPECT_EQ(m.replayed_cycles(), 0u);
}

TEST(Machine, ArenaReuseAcrossPayloadTypesDoesNotAllocate) {
  const net::Hypercube q(4);
  Machine m(q);
  const auto int_plan = [&](net::NodeId u) {
    return Send<int>{q.neighbor(u, 0), static_cast<int>(u)};
  };
  const auto double_plan = [&](net::NodeId u) {
    return Send<double>{q.neighbor(u, 1), static_cast<double>(u) * 0.5};
  };
  // Warm-up: one cycle per payload type creates that type's arena.
  { auto warm = m.comm_cycle<int>(int_plan); }
  { auto warm = m.comm_cycle<double>(double_plan); }
  const std::uint64_t before = g_allocation_count.load();
  for (int rep = 0; rep < 8; ++rep) {
    auto ints = m.comm_cycle<int>(int_plan);
    auto doubles = m.comm_cycle<double>(double_plan);
    ASSERT_TRUE(ints[0].has_value());
    ASSERT_TRUE(doubles[0].has_value());
    EXPECT_EQ(*ints[0], static_cast<int>(bits::flip(net::NodeId{0}, 0)));
    EXPECT_EQ(*doubles[0],
              static_cast<double>(bits::flip(net::NodeId{0}, 1)) * 0.5);
  }
  EXPECT_EQ(g_allocation_count.load(), before);
}

// A replayed block sort settles each pair of partners in place, so it
// needs no second plane of keys. The second run of an RD_4 × 256 u64 sort
// (the first records the network's schedule) must allocate less than one
// N·m plane, 262,144 bytes, which a second plane would take on its own.
TEST(Machine, ReplayedBlockSortAllocatesLessThanOnePlane) {
  const net::RecursiveDualCube r(4);
  constexpr std::size_t kBlock = 256;
  const std::size_t plane_bytes =
      r.node_count() * kBlock * sizeof(std::uint64_t);
  ASSERT_EQ(plane_bytes, 262144u);
  Rng rng(27);
  std::vector<std::uint64_t> input(r.node_count() * kBlock);
  for (auto& k : input) k = rng();
  Machine m(r);
  m.set_schedule_path(SchedulePath::kCompiled);
  auto recorded = input;
  core::block_sort(m, r, recorded, kBlock);
  auto replayed = input;
  const std::uint64_t before = g_allocated_bytes.load();
  core::block_sort(m, r, replayed, kBlock);
  EXPECT_LT(g_allocated_bytes.load() - before, plane_bytes);
  EXPECT_EQ(m.replayed_cycles(), core::formulas::dual_sort_comm_exact(4));
  EXPECT_EQ(replayed, recorded);
  EXPECT_TRUE(std::is_sorted(replayed.begin(), replayed.end()));
}

TEST(Machine, MovesNonCopyablePayloads) {
  const net::Hypercube q(1);
  Machine m(q);
  auto inbox = m.comm_cycle<std::unique_ptr<int>>([&](net::NodeId u) {
    return Send<std::unique_ptr<int>>{bits::flip(u, 0),
                                      std::make_unique<int>(static_cast<int>(u))};
  });
  ASSERT_TRUE(inbox[0].has_value());
  EXPECT_EQ(**inbox[0], 1);
}

}  // namespace
}  // namespace dc::sim
