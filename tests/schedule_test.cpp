// Compiled-schedule tests: replaying a cached oblivious schedule must be
// observationally identical to the interpreted path — same results, same
// Counters, same per-cycle message trace, same per-edge loads — and
// record-time validation must fail with the interpreted path's exact
// SimError messages while caching nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/broadcast.hpp"
#include "collectives/metacube_broadcast.hpp"
#include "collectives/pipeline_broadcast.hpp"
#include "collectives/reduce.hpp"
#include "collectives/tree.hpp"
#include "core/block_sort.hpp"
#include "core/cube_bitonic_sort.hpp"
#include "core/cube_prefix.hpp"
#include "core/dimension_exchange.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/emulated_prefix.hpp"
#include "core/formulas.hpp"
#include "core/ft_dual_sort.hpp"
#include "core/ops.hpp"
#include "core/segmented.hpp"
#include "core/sequential.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/profile.hpp"
#include "sim/schedule.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::sim {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  // Each test records its own schedules from scratch.
  void SetUp() override { ScheduleCache::instance().clear(); }
};

// Per-directed-edge load vector in a deterministic (CSR) order.
std::vector<std::uint64_t> edge_loads(const Machine& m,
                                      const net::Topology& t) {
  std::vector<std::uint64_t> loads;
  for (net::NodeId u = 0; u < t.node_count(); ++u) {
    for (const net::NodeId v : t.neighbors(u)) loads.push_back(m.edge_load(u, v));
  }
  return loads;
}

// Runs `algo` four ways — interpreted, compiled-record, compiled-replay,
// and compiled-replay without edge-load accounting — and checks every
// compiled run reproduces the interpreted run's result, Counters,
// per-cycle message trace and (where counted) per-edge loads exactly.
template <typename Algo>
void expect_parity(const net::Topology& t, Algo&& algo) {
  Machine interp(t);
  interp.set_schedule_path(SchedulePath::kInterpreted);
  interp.enable_trace();
  interp.enable_edge_load();
  const auto expected = algo(interp);

  Machine record(t);
  record.set_schedule_path(SchedulePath::kCompiled);
  record.enable_trace();
  record.enable_edge_load();
  const auto recorded = algo(record);
  EXPECT_EQ(record.replayed_cycles(), 0u) << "record run must not replay";
  EXPECT_EQ(recorded, expected);
  EXPECT_EQ(record.counters(), interp.counters());
  EXPECT_EQ(record.messages_per_cycle(), interp.messages_per_cycle());
  EXPECT_EQ(edge_loads(record, t), edge_loads(interp, t));

  Machine replay(t);
  replay.set_schedule_path(SchedulePath::kCompiled);
  replay.enable_trace();
  replay.enable_edge_load();
  const auto replayed = algo(replay);
  EXPECT_GT(replay.replayed_cycles(), 0u) << "replay run must hit the cache";
  EXPECT_EQ(replayed, expected);
  EXPECT_EQ(replay.counters(), interp.counters());
  EXPECT_EQ(replay.messages_per_cycle(), interp.messages_per_cycle());
  EXPECT_EQ(edge_loads(replay, t), edge_loads(interp, t));

  // Edge-load accounting keeps replay rows on the per-row loop; without it
  // plane sources take the kernel sweep (simd::gather_rows), which must
  // agree just the same.
  Machine kernel(t);
  kernel.set_schedule_path(SchedulePath::kCompiled);
  kernel.enable_trace();
  const auto swept = algo(kernel);
  EXPECT_GT(kernel.replayed_cycles(), 0u) << "kernel run must hit the cache";
  EXPECT_EQ(swept, expected);
  EXPECT_EQ(kernel.counters(), interp.counters());
  EXPECT_EQ(kernel.messages_per_cycle(), interp.messages_per_cycle());
}

std::vector<u64> random_values(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u64> data(n);
  for (auto& x : data) x = rng.below(1000);
  return data;
}

std::vector<std::string> letters(std::size_t n) {
  std::vector<std::string> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::string(1, static_cast<char>('a' + (i % 26)));
  return v;
}

TEST_F(ScheduleTest, DualPrefixParity) {
  const net::DualCube d(3);
  const auto data = random_values(d.node_count(), 1);
  expect_parity(d, [&](Machine& m) {
    return core::dual_prefix(m, d, core::Plus<u64>{}, data);
  });
}

TEST_F(ScheduleTest, CubePrefixParity) {
  const net::Hypercube q(4);
  const auto data = random_values(q.node_count(), 2);
  expect_parity(q, [&](Machine& m) {
    auto out = core::cube_prefix(m, q, core::Plus<u64>{}, data, true);
    return std::pair{std::move(out.total), std::move(out.prefix)};
  });
  // Heap-owning and non-commutative: strings ride the width-1 plane and
  // must still combine in label order.
  ScheduleCache::instance().clear();
  const auto words = letters(q.node_count());
  expect_parity(q, [&](Machine& m) {
    auto out = core::cube_prefix(m, q, core::Concat{}, words, true);
    EXPECT_EQ(out.prefix, core::seq_inclusive_scan(core::Concat{}, words));
    return std::pair{std::move(out.total), std::move(out.prefix)};
  });
}

TEST_F(ScheduleTest, CubeBitonicSortParity) {
  const net::Hypercube q(4);
  const auto input = generate_keys(KeyDistribution::kUniform, q.node_count(), 3);
  expect_parity(q, [&](Machine& m) {
    auto keys = input;
    core::cube_bitonic_sort(m, q, keys);
    return keys;
  });
  // Heap-owning keys (past the small-string buffer), ordered as strings.
  ScheduleCache::instance().clear();
  std::vector<std::string> words(input.size());
  for (std::size_t i = 0; i < input.size(); ++i)
    words[i] = std::to_string(input[i]) + std::string(20, 'k');
  expect_parity(q, [&](Machine& m) {
    auto keys = words;
    core::cube_bitonic_sort(m, q, keys);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    return keys;
  });
}

// dual_sort is the width-1 run of the block network: its interpreted and
// record runs ship sender ids and pack rows, replay gathers planes. Signed
// keys (with duplicates) sort descending, so both top-level directions run.
TEST_F(ScheduleTest, DualSortParity) {
  for (unsigned order = 1; order <= 5; ++order) {
    SCOPED_TRACE(testing::Message() << "D_" << order);
    const net::RecursiveDualCube r(order);
    const auto input =
        generate_keys(KeyDistribution::kUniform, r.node_count(), 4);
    ScheduleCache::instance().clear();
    expect_parity(r, [&](Machine& m) {
      auto keys = input;
      core::dual_sort(m, r, keys);
      return keys;
    });

    std::vector<int> signed_input(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
      signed_input[i] = static_cast<int>(input[i] % 97) - 48;
    ScheduleCache::instance().clear();
    expect_parity(r, [&](Machine& m) {
      auto keys = signed_input;
      core::dual_sort(m, r, keys, /*descending=*/true);
      return keys;
    });
  }
}

// block_sort and dual_sort run one network, so they share one compiled
// schedule: whichever records it, the other replays every cycle of it.
TEST_F(ScheduleTest, BlockAndScalarSortShareOneSchedule) {
  const net::RecursiveDualCube r(3);
  const std::size_t width = 3;
  const auto keys = generate_keys(KeyDistribution::kUniform, r.node_count(), 7);
  const auto blocks = random_values(r.node_count() * width, 8);
  auto want_keys = keys;
  std::sort(want_keys.begin(), want_keys.end());
  auto want_blocks = blocks;
  std::sort(want_blocks.begin(), want_blocks.end());

  const auto block_run = [&](Machine& m) {
    auto data = blocks;
    core::block_sort(m, r, data, width);
    EXPECT_EQ(data, want_blocks);
  };
  const auto scalar_run = [&](Machine& m) {
    auto data = keys;
    core::dual_sort(m, r, data);
    EXPECT_EQ(data, want_keys);
  };
  for (const bool block_records : {true, false}) {
    SCOPED_TRACE(testing::Message() << "block records: " << block_records);
    ScheduleCache::instance().clear();
    Machine recorder(r);
    recorder.set_schedule_path(SchedulePath::kCompiled);
    Machine replayer(r);
    replayer.set_schedule_path(SchedulePath::kCompiled);
    if (block_records) {
      block_run(recorder);
      scalar_run(replayer);
    } else {
      scalar_run(recorder);
      block_run(replayer);
    }
    EXPECT_EQ(recorder.replayed_cycles(), 0u);
    EXPECT_EQ(replayer.counters().comm_cycles,
              core::formulas::dual_sort_comm_exact(3));
    EXPECT_EQ(replayer.replayed_cycles(), replayer.counters().comm_cycles);
    EXPECT_EQ(ScheduleCache::instance().size(), 1u);
  }
}

TEST_F(ScheduleTest, DimensionExchangeParity) {
  const net::RecursiveDualCube r(2);
  const auto data = random_values(r.node_count(), 5);
  // j = 2 > 0 exercises the 3-cycle relayed schedule.
  expect_parity(r, [&](Machine& m) {
    return core::dimension_exchange(m, r, 2, data);
  });
}

TEST_F(ScheduleTest, DualBroadcastParity) {
  const net::DualCube d(3);
  expect_parity(d, [&](Machine& m) {
    return collectives::dual_broadcast<u64>(m, d, net::NodeId{5}, 42);
  });
  // A 40-byte heap-owning value through the callback rows.
  ScheduleCache::instance().clear();
  const std::string value = "forty bytes of broadcast payload: 012345";
  ASSERT_EQ(value.size(), 40u);
  expect_parity(d, [&](Machine& m) {
    auto out = collectives::dual_broadcast(m, d, net::NodeId{5}, value);
    EXPECT_EQ(out, std::vector<std::string>(d.node_count(), value));
    return out;
  });
}

// The pipeline's chunks are computed payloads (callback rows, one chunk
// per sender and cycle): heap-owning strings must arrive intact, in order,
// on every path.
TEST_F(ScheduleTest, RingPipelineBroadcastParity) {
  const net::DualCube d(3);
  std::vector<std::string> chunks(5);
  for (std::size_t i = 0; i < chunks.size(); ++i)
    chunks[i] = "chunk " + std::to_string(i) +
                std::string(24, static_cast<char>('a' + i));
  expect_parity(d, [&](Machine& m) {
    auto received =
        collectives::ring_pipeline_broadcast(m, d, net::NodeId{6}, chunks);
    for (const auto& got : received) EXPECT_EQ(got, chunks);
    return received;
  });
}

TEST_F(ScheduleTest, CubeBroadcastParity) {
  const net::Hypercube q(4);
  expect_parity(q, [&](Machine& m) {
    return collectives::cube_broadcast<u64>(m, q, net::NodeId{3}, 7);
  });
}

TEST_F(ScheduleTest, TreeCollectivesParity) {
  const net::DualCube d(2);
  const auto values = random_values(d.node_count(), 6);
  expect_parity(d, [&](Machine& m) {
    return collectives::tree_broadcast<u64>(m, d, net::NodeId{1}, 9);
  });
  ScheduleCache::instance().clear();
  expect_parity(d, [&](Machine& m) {
    return collectives::tree_reduce(m, d, net::NodeId{1}, core::Plus<u64>{},
                                    values);
  });
}

TEST_F(ScheduleTest, ReduceCollectivesParity) {
  const net::DualCube d(3);
  const auto values = random_values(d.node_count(), 7);
  expect_parity(d, [&](Machine& m) {
    return collectives::dual_reduce(m, d, net::NodeId{2}, core::Plus<u64>{},
                                    values);
  });
  ScheduleCache::instance().clear();
  expect_parity(d, [&](Machine& m) {
    return collectives::dual_allreduce(m, d, core::Plus<u64>{}, values);
  });
  const net::Hypercube q(4);
  const auto qvalues = random_values(q.node_count(), 8);
  expect_parity(q, [&](Machine& m) {
    return collectives::cube_reduce(m, q, net::NodeId{1}, core::Plus<u64>{},
                                    qvalues);
  });
}

// Block workloads run their cycles through exchange_blocks: interpreted and
// record runs ship sender ids through the fully validated path and pack
// rows from them, replay gathers SoA planes — all must agree exactly.
TEST_F(ScheduleTest, BlockSortParity) {
  const net::RecursiveDualCube r(2);
  const std::size_t block = 4;
  const auto input = random_values(r.node_count() * block, 10);
  expect_parity(r, [&](Machine& m) {
    auto data = input;
    core::block_sort(m, r, data, block);
    return data;
  });
}

TEST_F(ScheduleTest, DualAllgatherParity) {
  const net::DualCube d(3);
  const auto values = random_values(d.node_count(), 11);
  expect_parity(d, [&](Machine& m) {
    return collectives::dual_allgather(m, d, values);
  });
}

TEST_F(ScheduleTest, CubeAllgatherParity) {
  const net::Hypercube q(4);
  const auto values = random_values(q.node_count(), 12);
  expect_parity(q, [&](Machine& m) {
    return collectives::cube_allgather(m, q, values);
  });
}

TEST_F(ScheduleTest, DualAlltoallParity) {
  const net::RecursiveDualCube r(2);
  const std::size_t n = r.node_count();
  std::vector<std::vector<u64>> messages(n, std::vector<u64>(n));
  for (net::NodeId u = 0; u < n; ++u)
    for (net::NodeId v = 0; v < n; ++v) messages[u][v] = u * 1000 + v;
  expect_parity(r, [&](Machine& m) {
    return collectives::dual_alltoall(m, r, messages);
  });
}

TEST_F(ScheduleTest, MetacubeBroadcastParity) {
  const net::Metacube mc(2, 2);
  expect_parity(mc, [&](Machine& m) {
    return collectives::metacube_broadcast<u64>(m, mc, net::NodeId{11}, 42);
  });
  // The schedule key carries the root: a different root must record its own
  // schedule, not replay node 11's.
  expect_parity(mc, [&](Machine& m) {
    return collectives::metacube_broadcast<u64>(m, mc, net::NodeId{0}, 7);
  });
}

TEST_F(ScheduleTest, SegmentedPrefixParity) {
  const net::DualCube d(3);
  const auto values = random_values(d.node_count(), 13);
  std::vector<bool> heads(d.node_count(), false);
  heads[0] = heads[5] = heads[17] = heads[23] = true;
  expect_parity(d, [&](Machine& m) {
    return core::segmented_dual_prefix(m, d, core::Plus<u64>{}, values, heads);
  });
  // The segmented run shares dual_prefix's schedule (the Seg monoid changes
  // no destination), so a plain dual_prefix replays the schedule the
  // segmented record run just cached.
  Machine m(d);
  m.set_schedule_path(SchedulePath::kCompiled);
  (void)core::dual_prefix(m, d, core::Plus<u64>{}, values);
  EXPECT_GT(m.replayed_cycles(), 0u);
}

TEST_F(ScheduleTest, SegmentedBlockPrefixParity) {
  const net::DualCube d(2);
  const std::size_t block = 3;
  const auto values = random_values(d.node_count() * block, 14);
  std::vector<bool> heads(values.size(), false);
  heads[0] = heads[4] = heads[13] = true;
  expect_parity(d, [&](Machine& m) {
    return core::segmented_block_prefix(m, d, core::Plus<u64>{}, values, heads,
                                        block);
  });
}

TEST_F(ScheduleTest, CacheIsReusedAcrossRuns) {
  const net::DualCube d(2);
  const auto data = random_values(d.node_count(), 9);
  const auto run = [&] {
    Machine m(d);
    m.set_schedule_path(SchedulePath::kCompiled);
    return core::dual_prefix(m, d, core::Plus<u64>{}, data);
  };
  const auto first = run();
  const std::size_t cached = ScheduleCache::instance().size();
  EXPECT_GT(cached, 0u);
  EXPECT_EQ(run(), first);
  EXPECT_EQ(ScheduleCache::instance().size(), cached)
      << "second run must replay, not re-record";
}

// Record-time validation reuses the interpreted path verbatim, so the
// SimError messages match tests/sim_test.cpp byte for byte — and a run
// that throws must cache nothing.
TEST_F(ScheduleTest, RecordTimeNonEdgeSendMessageIsExact) {
  const net::Hypercube q(3);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  try {
    ObliviousSection sched(m, "bad_nonedge", {});
    (void)sched.exchange<int>(
        [](net::NodeId u) { return u == 0 ? net::NodeId{3} : kNoSend; },
        [](net::NodeId) { return 1; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent to 3 but Q_3 has no such link");
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 0u);
}

TEST_F(ScheduleTest, RecordTimeOutOfRangeSendMessageIsExact) {
  const net::Hypercube q(2);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  try {
    ObliviousSection sched(m, "bad_range", {});
    (void)sched.exchange<int>(
        [](net::NodeId u) { return u == 1 ? net::NodeId{99} : kNoSend; },
        [](net::NodeId) { return 1; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "node 1 sent to out-of-range node 99");
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 0u);
}

TEST_F(ScheduleTest, RecordTimeOnePortViolationMessageIsExact) {
  const net::Hypercube q(3);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  try {
    ObliviousSection sched(m, "bad_port", {});
    (void)sched.exchange<int>(
        [](net::NodeId u) {
          return (u == 1 || u == 2 || u == 4) ? net::NodeId{0} : kNoSend;
        },
        [](net::NodeId) { return 7; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(
        e.what(),
        "1-port violation: node 0 would receive two messages in one cycle");
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 0u);
}

// The interpreted/record fallback of exchange_blocks routes through the
// same validated comm_cycle as scalar exchanges, so a bad block cycle
// fails with the identical SimError strings — and caches nothing.
TEST_F(ScheduleTest, BlockRecordTimeNonEdgeSendMessageIsExact) {
  const net::Hypercube q(3);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  try {
    ObliviousSection sched(m, "bad_block_nonedge", {});
    (void)sched.exchange_blocks<int>(
        2, [](net::NodeId u) { return u == 0 ? net::NodeId{3} : kNoSend; },
        [](net::NodeId, int* dst) { dst[0] = dst[1] = 1; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(e.what(), "node 0 sent to 3 but Q_3 has no such link");
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 0u);
}

TEST_F(ScheduleTest, BlockRecordTimeOnePortViolationMessageIsExact) {
  const net::Hypercube q(3);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  try {
    ObliviousSection sched(m, "bad_block_port", {});
    // At width 1 too, the error string must match the scalar path byte
    // for byte.
    (void)sched.exchange_blocks<int>(
        1,
        [](net::NodeId u) {
          return (u == 1 || u == 2 || u == 4) ? net::NodeId{0} : kNoSend;
        },
        [](net::NodeId, int* dst) { *dst = 7; });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_STREQ(
        e.what(),
        "1-port violation: node 0 would receive two messages in one cycle");
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 0u);
}

TEST_F(ScheduleTest, ReplayRejectsExtraCycles) {
  const net::Hypercube q(2);
  const auto one_cycle = [&](Machine& m) {
    ObliviousSection sched(m, "short", {});
    (void)sched.exchange<int>(
        [](net::NodeId u) { return bits::flip(u, 0); },
        [](net::NodeId u) { return static_cast<int>(u); });
    sched.commit();
  };
  Machine a(q);
  a.set_schedule_path(SchedulePath::kCompiled);
  one_cycle(a);

  Machine b(q);
  b.set_schedule_path(SchedulePath::kCompiled);
  ObliviousSection sched(b, "short", {});
  ASSERT_TRUE(sched.replaying());
  (void)sched.exchange<int>(
      [](net::NodeId u) { return bits::flip(u, 0); },
      [](net::NodeId u) { return static_cast<int>(u); });
  EXPECT_THROW((void)sched.exchange<int>(
                   [](net::NodeId u) { return bits::flip(u, 0); },
                   [](net::NodeId u) { return static_cast<int>(u); }),
               CheckError);
}

// The converse: a replaying section whose run stops short of its compiled
// schedule has diverged from what it recorded, and commit() says so.
TEST_F(ScheduleTest, ReplayRejectsMissingCycles) {
  const net::Hypercube q(2);
  const auto run = [&](Machine& m, int cycles) {
    ObliviousSection sched(m, "three", {});
    for (int c = 0; c < cycles; ++c) {
      (void)sched.exchange<int>(
          [](net::NodeId u) { return bits::flip(u, 0); },
          [](net::NodeId u) { return static_cast<int>(u); });
    }
    sched.commit();
  };
  Machine a(q);
  a.set_schedule_path(SchedulePath::kCompiled);
  run(a, 3);

  Machine b(q);
  b.set_schedule_path(SchedulePath::kCompiled);
  try {
    run(b, 2);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const std::string tail =
        " — algorithm issued fewer cycles than its compiled schedule";
    EXPECT_EQ(what.rfind("DC_CHECK failed: ", 0), 0u) << what;
    ASSERT_GE(what.size(), tail.size()) << what;
    EXPECT_EQ(what.substr(what.size() - tail.size()), tail);
  }
  EXPECT_EQ(b.replayed_cycles(), 2u);
  run(b, 3);  // the full run still replays and commits cleanly
  EXPECT_EQ(b.replayed_cycles(), 5u);
}

// The validation flag is part of the cache key: a schedule recorded with
// link validation off (and containing a non-edge hop) replays only on
// non-validating machines; a validating machine records afresh and throws.
TEST_F(ScheduleTest, ValidationFlagSeparatesCacheEntries) {
  const net::Hypercube q(3);
  const auto warp = [&](Machine& m) {
    ObliviousSection sched(m, "warp", {});
    auto inbox = sched.exchange<int>(
        [](net::NodeId u) { return u == 0 ? net::NodeId{7} : kNoSend; },
        [](net::NodeId) { return 5; });
    sched.commit();
    return inbox.has(7);
  };
  Machine loose(q, /*validate=*/false);
  loose.set_schedule_path(SchedulePath::kCompiled);
  EXPECT_TRUE(warp(loose));

  Machine loose_replay(q, /*validate=*/false);
  loose_replay.set_schedule_path(SchedulePath::kCompiled);
  EXPECT_TRUE(warp(loose_replay));
  EXPECT_EQ(loose_replay.replayed_cycles(), 1u);

  Machine strict(q);
  strict.set_schedule_path(SchedulePath::kCompiled);
  EXPECT_THROW(warp(strict), SimError);
}

// The regression the fault subsystem depends on: a FaultyTopology keeps
// the base's name() and node_count() and differs ONLY in its edge set, so
// the adjacency fingerprint in the cache key is the sole thing standing
// between a healthy schedule and a faulted graph. A cached schedule must
// NOT be served for the same-name mutated-edge topology.
TEST_F(ScheduleTest, FingerprintKeepsSameNameMutatedEdgeGraphsApart) {
  const net::DualCube d(2);
  Machine healthy(d);
  healthy.set_schedule_path(SchedulePath::kCompiled);
  {
    ObliviousSection sched(healthy, "probe", {1});
    (void)sched.exchange<int>(
        [&](net::NodeId u) { return d.cross_neighbor(u); },
        [](net::NodeId u) { return static_cast<int>(u); });
    sched.commit();
  }
  EXPECT_EQ(ScheduleCache::instance().size(), 1u);

  // Positive control: an equal graph (same family, same edges) hits.
  const net::DualCube same(2);
  Machine twin(same);
  twin.set_schedule_path(SchedulePath::kCompiled);
  {
    ObliviousSection sched(twin, "probe", {1});
    EXPECT_TRUE(sched.replaying()) << "identical graphs must share schedules";
  }

  // Same name, same node count, one link removed: must miss.
  FaultPlan plan;
  plan.kill_link(0, 1);
  const FaultyTopology faulted(d, plan);
  ASSERT_EQ(faulted.name(), d.name());
  ASSERT_EQ(faulted.node_count(), d.node_count());
  Machine m(faulted);
  m.set_schedule_path(SchedulePath::kCompiled);
  {
    ObliviousSection sched(m, "probe", {1});
    EXPECT_FALSE(sched.replaying())
        << "a schedule recorded on the healthy graph must never replay on "
           "a same-name faulted graph";
  }
}

// ---------------------------------------------- fused dual_prefix replay
//
// A replaying dual_prefix runs each in-cluster exchange and the step that
// consumes it as one fused sweep. Everything observable must match the
// interpreted and record runs: results, Counters, the per-cycle message
// trace, edge loads and the profiler's imbalance samples.

// `name` spans on a machine's own trace.
std::size_t span_count(const Machine& m, std::string_view name) {
  std::size_t count = 0;
  for (const TraceEvent& e : m.trace()->merged())
    if (e.ph == 'B' && e.track == m.trace_track() && name == e.name) ++count;
  return count;
}

template <core::Monoid M>
struct PrefixRun {
  std::vector<typename M::value_type> result;
  ImbalanceSummary imbalance;
};

// One traced, profiled dual_prefix run on `m`.
template <core::Monoid M>
PrefixRun<M> profiled_prefix(Machine& m, const net::DualCube& d, const M& op,
                             const std::vector<typename M::value_type>& data,
                             bool inclusive) {
  CycleProfiler prof;
  m.attach_profiler(&prof);
  PrefixRun<M> run{core::dual_prefix(m, d, op, data, {}, inclusive), {}};
  m.attach_profiler(nullptr);
  run.imbalance = prof.summary();
  return run;
}

template <core::Monoid M>
void expect_fused_prefix_parity(unsigned order, const M& op,
                                const std::vector<typename M::value_type>& data,
                                bool inclusive) {
  const net::DualCube d(order);
  const std::size_t fused_cycles = 2 * (order - 1);
  const auto want = inclusive ? core::seq_inclusive_scan(op, data)
                              : core::seq_exclusive_scan(op, data);
  for (const bool loads : {true, false}) {
    SCOPED_TRACE(testing::Message() << "D_" << order << " inclusive="
                                    << inclusive << " edge_load=" << loads);
    ScheduleCache::instance().clear();
    const auto machine = [&](SchedulePath path) {
      auto m = std::make_unique<Machine>(d);
      m->set_schedule_path(path);
      m->enable_trace();
      if (loads) m->enable_edge_load();
      return m;
    };
    const auto interp = machine(SchedulePath::kInterpreted);
    const auto expected = profiled_prefix(*interp, d, op, data, inclusive);
    EXPECT_EQ(expected.result, want);
    EXPECT_EQ(span_count(*interp, "comm_cycle_fused"), 0u);

    for (const bool replaying : {false, true}) {
      const auto m = machine(SchedulePath::kCompiled);
      const auto got = profiled_prefix(*m, d, op, data, inclusive);
      EXPECT_EQ(got.result, expected.result) << "replay=" << replaying;
      EXPECT_EQ(m->counters(), interp->counters()) << "replay=" << replaying;
      EXPECT_EQ(m->messages_per_cycle(), interp->messages_per_cycle());
      EXPECT_EQ(got.imbalance, expected.imbalance) << "replay=" << replaying;
      if (loads) {
        EXPECT_EQ(edge_loads(*m, d), edge_loads(*interp, d));
      }
      EXPECT_EQ(m->replayed_cycles(),
                replaying ? m->counters().comm_cycles : 0u);
      EXPECT_EQ(span_count(*m, "comm_cycle_fused"),
                replaying ? fused_cycles : 0u);
    }
  }
}

std::vector<core::Mat2::value_type> matrices(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<core::Mat2::value_type> v(n);
  for (auto& x : v)
    x = {rng.below(9), rng.below(9), rng.below(9), rng.below(9)};
  return v;
}

TEST_F(ScheduleTest, FusedDualPrefixParityPlus) {
  for (unsigned order = 1; order <= 6; ++order) {
    const auto data = random_values(net::DualCube(order).node_count(), order);
    for (const bool inclusive : {true, false})
      expect_fused_prefix_parity(order, core::Plus<u64>{}, data, inclusive);
  }
}

TEST_F(ScheduleTest, FusedDualPrefixParityNonCommutativeMat2) {
  for (unsigned order = 1; order <= 6; ++order) {
    const auto data = matrices(net::DualCube(order).node_count(), order);
    for (const bool inclusive : {true, false})
      expect_fused_prefix_parity(order, core::Mat2{}, data, inclusive);
  }
}

TEST_F(ScheduleTest, FusedDualPrefixParityNonTrivialConcat) {
  for (unsigned order = 1; order <= 6; ++order) {
    const auto data = letters(net::DualCube(order).node_count());
    for (const bool inclusive : {true, false})
      expect_fused_prefix_parity(order, core::Concat{}, data, inclusive);
  }
}

// emulated_prefix ships every value type through the width-1 block relay;
// a non-commutative (Mat2) and a heap-owning (Concat) monoid must agree
// across interpreted, record and replay runs just like a plain sum.
TEST_F(ScheduleTest, EmulatedPrefixParity) {
  const auto check = [](const net::RecursiveDualCube& r, const auto& op,
                        const auto& data) {
    ScheduleCache::instance().clear();
    expect_parity(r, [&](Machine& m) {
      auto out = core::emulated_prefix(m, r, op, data);
      EXPECT_EQ(out, core::seq_inclusive_scan(op, data));
      return out;
    });
  };
  for (unsigned order = 1; order <= 4; ++order) {
    SCOPED_TRACE(testing::Message() << "D_" << order);
    const net::RecursiveDualCube r(order);
    const std::size_t n = r.node_count();
    check(r, core::Plus<u64>{}, random_values(n, 20 + order));
    check(r, core::Mat2{}, matrices(n, 30 + order));
    check(r, core::Concat{}, letters(n));
  }
}

// Fused blocks run concurrently on a multi-worker pool at grain 1; the
// sweep must still match the single-threaded interpreted run.
TEST_F(ScheduleTest, FusedDualPrefixParityOnWorkerPool) {
  const net::DualCube d(5);
  const core::Mat2 op;
  const auto data = matrices(d.node_count(), 55);
  Machine interp(d);
  interp.set_schedule_path(SchedulePath::kInterpreted);
  interp.enable_edge_load();
  const auto expected = core::dual_prefix(interp, d, op, data);

  ThreadPool pool(4);
  for (int run = 0; run < 2; ++run) {  // record, then replay
    Machine m(d);
    m.set_thread_pool(&pool);
    m.set_parallel_grain(1);
    m.set_schedule_path(SchedulePath::kCompiled);
    m.enable_trace();
    m.enable_edge_load();
    EXPECT_EQ(core::dual_prefix(m, d, op, data), expected) << "run " << run;
    EXPECT_EQ(m.counters(), interp.counters()) << "run " << run;
    EXPECT_EQ(edge_loads(m, d), edge_loads(interp, d)) << "run " << run;
    EXPECT_EQ(span_count(m, "comm_cycle_fused"), run == 0 ? 0u : 8u);
  }
}

// A replayed cluster pass runs its whole sweep inside the first step's
// fused cycle and books the other steps around empty bodies, so its
// trace must read exactly like one fused sweep per step: per pass, n-1 x
// (comm_cycle_fused B/E, compute_step), the cross-edge replays between
// and after the passes, then the step-4 and step-5 compute steps.
TEST_F(ScheduleTest, ReplayedDualPrefixBooksEveryStepInOrder) {
  const net::DualCube d(5);
  const auto data = random_values(d.node_count(), 5);
  Machine warm(d);
  warm.set_schedule_path(SchedulePath::kCompiled);
  core::dual_prefix(warm, d, core::Plus<u64>{}, data);

  Machine m(d);
  m.set_schedule_path(SchedulePath::kCompiled);
  m.enable_trace();
  core::dual_prefix(m, d, core::Plus<u64>{}, data);
  std::vector<std::pair<std::string, char>> got;
  for (const TraceEvent& e : m.trace()->merged())
    if (e.track == m.trace_track()) got.emplace_back(e.name, e.ph);

  std::vector<std::pair<std::string, char>> want{
      {"replay:dual_prefix", 'B'}, {"schedule_cache_hit", 'i'}};
  const auto pass = [&] {
    for (unsigned i = 0; i + 1 < d.order(); ++i) {
      want.insert(want.end(), {{"comm_cycle_fused", 'B'},
                               {"comm_cycle_fused", 'E'},
                               {"compute_step", 'i'}});
    }
  };
  const auto cross = [&] {
    want.insert(want.end(), {{"comm_cycle_replay_blocks", 'B'},
                             {"comm_cycle_replay_blocks", 'E'}});
  };
  pass();
  cross();
  pass();
  cross();
  want.insert(want.end(), {{"compute_step", 'i'},
                           {"compute_step", 'i'},
                           {"replay:dual_prefix", 'E'}});
  EXPECT_EQ(got, want);
}

// An observer sees the same six stages, array for array, whichever path
// runs: the interpreted and record runs step by step, the replay through
// tiled passes and (for an observer only) separate step-4 and step-5
// sweeps. Mat2 keeps operand order visible.
template <core::Monoid M>
using PrefixStages = std::vector<std::pair<
    std::string,
    std::vector<std::pair<std::string, std::vector<typename M::value_type>>>>>;

// One observed dual_prefix run: its result and Counters, and the stages it
// appended to `stages`.
template <core::Monoid M>
auto observed_prefix(SchedulePath path, const net::DualCube& d, const M& op,
                     const std::vector<typename M::value_type>& data,
                     bool inclusive, PrefixStages<M>& stages) {
  Machine m(d);
  m.set_schedule_path(path);
  const auto out = core::dual_prefix(
      m, d, op, data,
      [&](const std::string& stage, const auto& arrays) {
        stages.emplace_back(stage, arrays);
      },
      inclusive);
  return std::make_pair(out, m.counters());
}

template <core::Monoid M>
void expect_observed_stage_parity(
    const net::DualCube& d, const M& op,
    const std::vector<typename M::value_type>& data, bool inclusive) {
  ScheduleCache::instance().clear();
  PrefixStages<M> want;
  const auto ref =
      observed_prefix(SchedulePath::kInterpreted, d, op, data, inclusive, want);
  ASSERT_EQ(want.size(), 6u);
  for (int run = 0; run < 2; ++run) {  // record, then replay
    PrefixStages<M> got;
    EXPECT_EQ(
        observed_prefix(SchedulePath::kCompiled, d, op, data, inclusive, got),
        ref)
        << "run " << run;
    EXPECT_EQ(got, want) << "run " << run;
  }
}

TEST_F(ScheduleTest, DualPrefixObserverSeesTheSameStagesOnEveryPath) {
  for (unsigned order = 1; order <= 5; ++order) {
    const net::DualCube d(order);
    for (const bool inclusive : {true, false}) {
      SCOPED_TRACE(testing::Message() << "D_" << order
                                      << " inclusive=" << inclusive);
      expect_observed_stage_parity(
          d, core::Plus<u64>{}, random_values(d.node_count(), 70 + order),
          inclusive);
      expect_observed_stage_parity(
          d, core::Mat2{}, matrices(d.node_count(), 80 + order), inclusive);
    }
  }
}

// Faulted machines interpret every cycle, so they never fuse — even with
// the healthy schedule already cached.
TEST_F(ScheduleTest, FaultedDualPrefixNeverFuses) {
  const net::DualCube d(4);
  const auto data = random_values(d.node_count(), 44);
  Machine warm(d);
  warm.set_schedule_path(SchedulePath::kCompiled);
  const auto expected = core::dual_prefix(warm, d, core::Plus<u64>{}, data);
  ASSERT_EQ(ScheduleCache::instance().size(), 1u);

  Machine faulted(d);
  faulted.set_schedule_path(SchedulePath::kCompiled);
  faulted.enable_trace();
  faulted.attach_faults(std::make_shared<FaultTimeline>());
  EXPECT_EQ(core::dual_prefix(faulted, d, core::Plus<u64>{}, data), expected);
  EXPECT_EQ(faulted.replayed_cycles(), 0u);
  EXPECT_EQ(span_count(faulted, "comm_cycle_fused"), 0u);
  EXPECT_EQ(span_count(faulted, "comm_cycle"), faulted.counters().comm_cycles);
}

// ------------------------------------------------ fused dual_sort replay
//
// A replaying dual_bitonic_network runs each dimension step — its 1 or 3
// relay cycles and the compare step that consumes them — as one fused
// sweep. Everything observable must match the interpreted and record runs,
// for dual_sort's compare-exchange and block_sort's merge-split alike.

template <typename Key>
struct SortRun {
  std::vector<Key> result;
  ImbalanceSummary imbalance;
};

// One profiled `sort(m, keys)` over a copy of `input`.
template <typename Key, typename Sort>
SortRun<Key> profiled_sort(Machine& m, std::vector<Key> keys, Sort&& sort) {
  CycleProfiler prof;
  m.attach_profiler(&prof);
  sort(m, keys);
  m.attach_profiler(nullptr);
  return {std::move(keys), prof.summary()};
}

// Runs `sort` on RD_n interpreted, recording and replaying, with edge
// loads on and off: every run must sort `input` and agree with the
// interpreted one, and exactly the replay runs fused — all 6n²−7n+2 cycles.
template <typename Key, typename Sort>
void expect_fused_sort_parity(const net::RecursiveDualCube& r,
                              const std::vector<Key>& input, bool descending,
                              Sort&& sort) {
  auto want = input;
  std::sort(want.begin(), want.end());
  if (descending) std::reverse(want.begin(), want.end());
  const u64 cycles = core::formulas::dual_sort_comm_exact(r.order());
  for (const bool loads : {true, false}) {
    SCOPED_TRACE(testing::Message() << "edge_load=" << loads);
    ScheduleCache::instance().clear();
    const auto machine = [&](SchedulePath path) {
      auto m = std::make_unique<Machine>(r);
      m->set_schedule_path(path);
      m->enable_trace();
      if (loads) m->enable_edge_load();
      return m;
    };
    const auto interp = machine(SchedulePath::kInterpreted);
    const auto expected = profiled_sort(*interp, input, sort);
    EXPECT_EQ(expected.result, want);
    EXPECT_EQ(interp->counters().comm_cycles, cycles);
    EXPECT_EQ(span_count(*interp, "comm_cycle_fused"), 0u);

    for (const bool replaying : {false, true}) {
      const auto m = machine(SchedulePath::kCompiled);
      const auto got = profiled_sort(*m, input, sort);
      EXPECT_EQ(got.result, expected.result) << "replay=" << replaying;
      EXPECT_EQ(m->counters(), interp->counters()) << "replay=" << replaying;
      EXPECT_EQ(m->messages_per_cycle(), interp->messages_per_cycle());
      EXPECT_EQ(got.imbalance, expected.imbalance) << "replay=" << replaying;
      if (loads) {
        EXPECT_EQ(edge_loads(*m, r), edge_loads(*interp, r));
      }
      EXPECT_EQ(m->replayed_cycles(),
                replaying ? m->counters().comm_cycles : 0u);
      EXPECT_EQ(span_count(*m, "comm_cycle_fused"), replaying ? cycles : 0u);
    }
  }
}

// dual_sort and block_sort at width 3 over RD_1 .. RD_max_order, both
// directions, with keys from make_keys(count, seed).
template <typename MakeKeys>
void expect_fused_sorts_parity(MakeKeys&& make_keys, unsigned max_order) {
  for (unsigned order = 1; order <= max_order; ++order) {
    const net::RecursiveDualCube r(order);
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "RD_" << order
                                      << " descending=" << descending);
      expect_fused_sort_parity(
          r, make_keys(r.node_count(), order), descending,
          [&](Machine& m, auto& keys) {
            core::dual_sort(m, r, keys, descending);
          });
      expect_fused_sort_parity(
          r, make_keys(r.node_count() * 3, order + 100), descending,
          [&](Machine& m, auto& keys) {
            core::block_sort(m, r, keys, 3, descending);
          });
    }
  }
}

std::vector<int> small_signed_keys(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<int> v(n);
  for (int& x : v) x = static_cast<int>(rng.below(9)) - 4;
  return v;
}

// Heap-owning keys: a decimal key padded past the small-string buffer.
std::vector<std::string> string_keys(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<std::string> v(n);
  for (auto& x : v) x = std::to_string(rng.below(500)) + std::string(20, '.');
  return v;
}

// Integral keys replay dual_sort through the in-place vector kernel, so
// their legs run up to RD_7, the benchmark's sort order.
TEST_F(ScheduleTest, FusedDualSortParityU64) {
  expect_fused_sorts_parity(random_values, 7);
}

TEST_F(ScheduleTest, FusedDualSortParityIntWithDuplicates) {
  expect_fused_sorts_parity(small_signed_keys, 7);
}

TEST_F(ScheduleTest, FusedDualSortParityString) {
  expect_fused_sorts_parity(string_keys, 6);
}

// Fused sweeps run their blocks concurrently on a multi-worker pool at
// grain 1; the sweep must still match the single-threaded interpreted
// run. The first machine records the schedule with dual_sort and
// block_sort replays it; the second replays both. An RD_7 u64 leg runs
// the in-place vector kernel at the benchmark's sort order. Then pairs
// settle concurrently: each replayed step of a u64 block sort splits its
// N/2 pairs over the pool, at widths whose pairs run the vector pair
// kernel, and so does an observed string sort's per-pair compare-exchange.
TEST_F(ScheduleTest, FusedDualSortParityOnWorkerPool) {
  const net::RecursiveDualCube r(4);
  const auto keys = string_keys(r.node_count(), 41);
  const auto blocks = random_values(r.node_count() * 3, 42);
  Machine interp(r);
  interp.set_schedule_path(SchedulePath::kInterpreted);
  interp.enable_edge_load();
  auto want_keys = keys;
  core::dual_sort(interp, r, want_keys, /*descending=*/true);
  auto want_blocks = blocks;
  core::block_sort(interp, r, want_blocks, 3);

  ThreadPool pool(4);
  for (int run = 0; run < 2; ++run) {  // record, then replay
    Machine m(r);
    m.set_thread_pool(&pool);
    m.set_parallel_grain(1);
    m.set_schedule_path(SchedulePath::kCompiled);
    m.enable_trace();
    m.enable_edge_load();
    auto got_keys = keys;
    core::dual_sort(m, r, got_keys, /*descending=*/true);
    auto got_blocks = blocks;
    core::block_sort(m, r, got_blocks, 3);
    EXPECT_EQ(got_keys, want_keys) << "run " << run;
    EXPECT_EQ(got_blocks, want_blocks) << "run " << run;
    EXPECT_EQ(m.counters(), interp.counters()) << "run " << run;
    EXPECT_EQ(edge_loads(m, r), edge_loads(interp, r)) << "run " << run;
    const u64 fused =
        static_cast<u64>(run + 1) * core::formulas::dual_sort_comm_exact(4);
    EXPECT_EQ(m.replayed_cycles(), fused) << "run " << run;
    EXPECT_EQ(span_count(m, "comm_cycle_fused"), fused) << "run " << run;
  }

  const net::RecursiveDualCube r7(7);
  const auto keys7 = random_values(r7.node_count(), 44);
  Machine interp7(r7);
  interp7.set_schedule_path(SchedulePath::kInterpreted);
  interp7.enable_edge_load();
  auto want7 = keys7;
  core::dual_sort(interp7, r7, want7);
  for (int run = 0; run < 2; ++run) {  // record, then replay
    Machine m(r7);
    m.set_thread_pool(&pool);
    m.set_parallel_grain(1);
    m.set_schedule_path(SchedulePath::kCompiled);
    m.enable_edge_load();
    auto got7 = keys7;
    core::dual_sort(m, r7, got7);
    EXPECT_EQ(got7, want7) << "RD_7 run " << run;
    EXPECT_EQ(m.counters(), interp7.counters()) << "RD_7 run " << run;
    EXPECT_EQ(edge_loads(m, r7), edge_loads(interp7, r7)) << "RD_7 run " << run;
    EXPECT_EQ(m.replayed_cycles(),
              run == 0 ? 0u : core::formulas::dual_sort_comm_exact(7));
  }

  // `sort(m, data)` sorts and returns what its observer saw; each pooled
  // run must match the interpreted one in that too.
  const auto expect_pooled_pairs = [&](const auto& input, auto&& sort) {
    Machine interp_m(r);
    interp_m.set_schedule_path(SchedulePath::kInterpreted);
    interp_m.enable_edge_load();
    auto want = input;
    const auto want_seen = sort(interp_m, want);
    ScheduleCache::instance().clear();
    for (int run = 0; run < 2; ++run) {  // record, then replay
      Machine m(r);
      m.set_thread_pool(&pool);
      m.set_parallel_grain(1);
      m.set_schedule_path(SchedulePath::kCompiled);
      m.enable_edge_load();
      auto got = input;
      EXPECT_EQ(sort(m, got), want_seen) << "run " << run;
      EXPECT_EQ(got, want) << "run " << run;
      EXPECT_EQ(m.counters(), interp_m.counters()) << "run " << run;
      EXPECT_EQ(edge_loads(m, r), edge_loads(interp_m, r)) << "run " << run;
      EXPECT_EQ(m.replayed_cycles(),
                run == 0 ? 0u : core::formulas::dual_sort_comm_exact(4));
    }
  };
  for (const std::size_t width : {std::size_t{16}, std::size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "u64 block_sort, width " << width);
    expect_pooled_pairs(random_values(r.node_count() * width, 45 + width),
                        [&](Machine& m, std::vector<u64>& data) {
                          core::block_sort(m, r, data, width);
                          return 0;  // no observer
                        });
  }
  SCOPED_TRACE("observed string dual_sort");
  expect_pooled_pairs(keys, [&](Machine& m, std::vector<std::string>& data) {
    std::vector<std::pair<std::string, std::vector<std::string>>> seen;
    core::dual_sort<std::string>(
        m, r, data, /*descending=*/false,
        [&](const std::string& phase, const std::vector<std::string>& plane) {
          seen.emplace_back(phase, plane);
        });
    return seen;
  });
}

// A u64 key behind a non-integral type, so a replayed dual_sort settles
// each pair through the compare-exchange's pair form, one sweep per step,
// instead of running the register-blocked vector kernel.
struct WrappedKey {
  u64 key = 0;
  bool operator<(const WrappedKey& o) const { return key < o.key; }
};

// The in-place kernel books exactly what the generic combine books: on
// replay over RD_1 .. RD_7, both directions, integral keys and the same
// keys wrapped give the same result and byte-identical Counters,
// messages_per_cycle(), edge loads, ImbalanceSummary and trace JSON.
TEST_F(ScheduleTest, IntegralSortKernelBooksLikeTheGenericCombine) {
  for (unsigned order = 1; order <= 7; ++order) {
    const net::RecursiveDualCube r(order);
    const auto input = random_values(r.node_count(), 70 + order);
    std::vector<WrappedKey> wrapped(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) wrapped[i].key = input[i];
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "RD_" << order
                                      << " descending=" << descending);
      ScheduleCache::instance().clear();
      Machine warm(r);  // records the schedule both runs replay
      auto warm_keys = input;
      core::dual_sort(warm, r, warm_keys, descending);
      const auto machine = [&] {
        auto m = std::make_unique<Machine>(r);
        m->set_schedule_path(SchedulePath::kCompiled);
        m->enable_trace();
        m->enable_edge_load();
        return m;
      };
      const auto kernel = machine();
      const auto generic = machine();
      const auto got = profiled_sort(*kernel, input, [&](Machine& m, auto& k) {
        core::dual_sort(m, r, k, descending);
      });
      const auto want = profiled_sort(*generic, wrapped,
                                      [&](Machine& m, auto& k) {
                                        core::dual_sort(m, r, k, descending);
                                      });
      std::vector<u64> unwrapped;
      for (const WrappedKey& k : want.result) unwrapped.push_back(k.key);
      EXPECT_EQ(got.result, unwrapped);
      EXPECT_EQ(got.result, warm_keys);
      EXPECT_EQ(kernel->replayed_cycles(),
                core::formulas::dual_sort_comm_exact(order));
      EXPECT_EQ(kernel->counters(), generic->counters());
      EXPECT_EQ(kernel->messages_per_cycle(), generic->messages_per_cycle());
      EXPECT_EQ(edge_loads(*kernel, r), edge_loads(*generic, r));
      EXPECT_EQ(got.imbalance, want.imbalance);
      EXPECT_EQ(kernel->trace()->json(), generic->trace()->json());
    }
  }
}

// Faulted machines interpret every cycle, so they never fuse — even with
// the healthy schedule already cached.
TEST_F(ScheduleTest, FaultedDualSortNeverFuses) {
  const net::RecursiveDualCube r(3);
  const auto input = random_values(r.node_count(), 43);
  Machine warm(r);
  warm.set_schedule_path(SchedulePath::kCompiled);
  auto expected = input;
  core::dual_sort(warm, r, expected);
  ASSERT_EQ(ScheduleCache::instance().size(), 1u);

  Machine faulted(r);
  faulted.set_schedule_path(SchedulePath::kCompiled);
  faulted.enable_trace();
  faulted.attach_faults(std::make_shared<FaultTimeline>());
  auto keys = input;
  core::dual_sort(faulted, r, keys);
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(faulted.counters(), warm.counters());
  EXPECT_EQ(faulted.replayed_cycles(), 0u);
  EXPECT_EQ(span_count(faulted, "comm_cycle_fused"), 0u);
  EXPECT_EQ(span_count(faulted, "comm_cycle"), faulted.counters().comm_cycles);
}

// The Figures 5-6 observer sees the plane after every dimension step: a
// replaying run, whose steps fuse, must show it the interpreted run's
// (phase, plane) sequence.
TEST_F(ScheduleTest, DualSortObserverSeesTheSameStepsOnEveryPath) {
  using Steps = std::vector<std::pair<std::string, std::vector<u64>>>;
  for (unsigned order = 1; order <= 4; ++order) {
    const net::RecursiveDualCube r(order);
    const auto input = random_values(r.node_count(), 50 + order);
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "RD_" << order
                                      << " descending=" << descending);
      ScheduleCache::instance().clear();
      const auto observed = [&](SchedulePath path) {
        Machine m(r);
        m.set_schedule_path(path);
        Steps steps;
        auto keys = input;
        core::dual_sort<u64>(
            m, r, keys, descending,
            [&](const std::string& phase, const std::vector<u64>& plane) {
              steps.emplace_back(phase, plane);
            });
        return steps;
      };
      const Steps interp = observed(SchedulePath::kInterpreted);
      EXPECT_EQ(interp.size(), core::formulas::dual_sort_comp_exact(order));
      EXPECT_EQ(observed(SchedulePath::kCompiled), interp) << "record";
      EXPECT_EQ(observed(SchedulePath::kCompiled), interp) << "replay";
    }
  }
}

// A record ordered by its key alone: equal keys expose which element each
// compare-exchange partner keeps.
struct TaggedKey {
  int key = 0;
  int tag = 0;
  bool operator<(const TaggedKey& o) const { return key < o.key; }
};

// dual_sort's tie rule, pinned: on RD_3 with three distinct keys, every
// path must leave the same tags. On equal keys each compare-exchange
// partner keeps its own element, so the output is a permutation of the
// input records.
TEST_F(ScheduleTest, DualSortTieRuleIsPinnedOnEveryPath) {
  const net::RecursiveDualCube r(3);
  std::vector<TaggedKey> input(r.node_count());
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = {static_cast<int>((i * i + i / 5) % 3), static_cast<int>(i)};
  const std::vector<int> golden_ascending = {
      0,  3,  14, 11, 10, 13, 15, 30, 25, 29, 18, 26, 28, 6, 4, 2,
      24, 31, 9,  1,  21, 16, 19, 17, 27, 22, 23, 20, 12, 8, 7, 5};
  const std::vector<int> golden_descending = {
      27, 22, 23, 20, 12, 8,  7,  5,  4,  6,  9,  1,  21, 16, 19, 2,
      24, 31, 17, 14, 10, 13, 15, 11, 0,  3,  18, 26, 25, 29, 28, 30};
  for (const bool descending : {false, true}) {
    ScheduleCache::instance().clear();
    for (const SchedulePath path :
         {SchedulePath::kInterpreted, SchedulePath::kCompiled,
          SchedulePath::kCompiled}) {
      Machine m(r);
      m.set_schedule_path(path);
      auto keys = input;
      core::dual_sort(m, r, keys, descending);
      std::vector<int> tags;
      for (const TaggedKey& k : keys) tags.push_back(k.tag);
      EXPECT_EQ(tags, descending ? golden_descending : golden_ascending)
          << "descending=" << descending
          << " replayed=" << m.replayed_cycles();
      std::vector<int> records;
      for (const TaggedKey& k : keys) {
        EXPECT_EQ(k.key, input[static_cast<std::size_t>(k.tag)].key);
        records.push_back(k.tag);
      }
      std::sort(records.begin(), records.end());
      for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i], static_cast<int>(i)) << "record lost";
    }
    // The proxied network (ft_dual_sort, no faults) keeps the same rule.
    Machine ft(r);
    std::vector<int> tags;
    for (const auto& k : core::ft_dual_sort(ft, r, input, FaultPlan{},
                                            descending)) {
      ASSERT_TRUE(k.has_value());
      tags.push_back(k->tag);
    }
    EXPECT_EQ(tags, descending ? golden_descending : golden_ascending)
        << "ft_dual_sort descending=" << descending;
  }
}

// The certificate of Algorithm 3's compiled schedule: with the directions
// of detail::bitonic_keep_min, it is Batcher's bitonic sorting network on
// 2^(2n-1) wires, so by the 0-1 principle it sorts every input.
//   * Pairing: each dimension step's recorded senders compose, reading the
//     half BlockExchange::recv selects, into every node's net source,
//     which must be its partner u ^ 2^j. The fused sweep reads exactly
//     that block straight from the plane.
//   * Layers: the steps are the network's stages s = 0 .. 2n-2 in order,
//     stage s comparing across dimensions s, s-1, ..., 0, and they use up
//     every compiled cycle. Stage s is level k's half-merge (s = 2k-3) or
//     its full merge (s = 2k-2).
//   * Directions: the lower label u of each pair keeps the min iff bit s+1
//     of u is clear, or at the last stage iff ascending order was asked
//     for; its partner keeps the max. The combine reads this rule, and the
//     in-place kernel reads it through detail::pass_direction.
// block_sort replays the same schedule key with the same direction rule,
// so the certificate covers it too. RD_7 is the benchmark's sort order.
TEST_F(ScheduleTest, CompiledSortRelayDeliversEachNodesPartner) {
  for (unsigned order = 1; order <= 7; ++order) {
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "RD_" << order
                                      << " descending=" << descending);
      const net::RecursiveDualCube r(order);
      ScheduleCache::instance().clear();
      Machine m(r);
      m.set_schedule_path(SchedulePath::kCompiled);
      auto keys = random_values(r.node_count(), order);
      core::dual_sort(m, r, keys, descending);
      const auto sched = ScheduleCache::instance().find(
          ScheduleKey{ObliviousSection::topology_identity(r),
                      "dual_bitonic_network",
                      {order},
                      m.validating()});
      ASSERT_NE(sched, nullptr);

      std::size_t next = 0;
      const auto check_partners = [&](unsigned j) {
        const std::size_t cycles = core::detail::relay_cycles(j);
        ASSERT_LE(next + cycles, sched->cycle_count());
        const ScheduleCycle& c1 = sched->cycle(next);
        // Relay: bit-0 value of the nodes with a direct dimension-j link
        // (dimension_exchange_blocks); they keep cycle 2's first half, and
        // the others read the second half returned on cycle 3.
        const unsigned direct0 = j % 2 == 0 ? 0u : 1u;
        for (net::NodeId u = 0; u < r.node_count(); ++u) {
          net::NodeId src = kNoSender;
          if (j == 0) {
            src = c1.sender(u);
          } else if (bits::get(u, 0) == direct0) {
            src = sched->cycle(next + 1).sender(u);
          } else {
            const net::NodeId relay = sched->cycle(next + 2).sender(u);
            ASSERT_NE(relay, kNoSender) << "j=" << j << " u=" << u;
            const net::NodeId pair = sched->cycle(next + 1).sender(relay);
            ASSERT_NE(pair, kNoSender) << "j=" << j << " u=" << u;
            src = c1.sender(pair);
          }
          ASSERT_EQ(src, bits::flip(u, j)) << "j=" << j << " u=" << u;
        }
        next += cycles;
      };
      const unsigned last = 2 * order - 2;
      for (unsigned s = 0; s <= last; ++s) {
        const bool half_merge = s % 2 == 1;
        const unsigned k = half_merge ? (s + 3) / 2 : s / 2 + 1;
        for (unsigned j = s + 1; j-- > 0;) {
          ASSERT_NO_FATAL_FAILURE(check_partners(j)) << "s=" << s;
          for (net::NodeId u = 0; u < r.node_count(); ++u) {
            if (bits::get(u, j) != 0) continue;
            const bool keep_min = core::detail::bitonic_keep_min(
                u, j, k, order, half_merge, descending);
            const bool batcher =
                s == last ? !descending : bits::get(u, s + 1) == 0;
            ASSERT_EQ(keep_min, batcher)
                << "s=" << s << " j=" << j << " u=" << u;
            ASSERT_NE(core::detail::bitonic_keep_min(
                          bits::flip(u, j), j, k, order, half_merge,
                          descending),
                      keep_min)
                << "s=" << s << " j=" << j << " u=" << u;
          }
        }
      }
      EXPECT_EQ(next, sched->cycle_count()) << "compiled cycles left over";
    }
  }
}

// Batcher's sort on Q_d (cube_bitonic_sort), certified like Algorithm 3
// above on Q_1 .. Q_10, both directions: its compiled schedule makes
// d(d+1)/2 cycles, level k's step j delivers every node its dimension-j
// partner, and in each pair the lower label u keeps the min iff bit k of
// u is clear, or at the last level iff ascending order was asked for,
// its partner the max.
TEST_F(ScheduleTest, CompiledCubeSortDeliversEachNodesPartner) {
  for (unsigned d = 1; d <= 10; ++d) {
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "Q_" << d
                                      << " descending=" << descending);
      const net::Hypercube q(d);
      ScheduleCache::instance().clear();
      Machine m(q);
      m.set_schedule_path(SchedulePath::kCompiled);
      auto keys = random_values(q.node_count(), d);
      core::cube_bitonic_sort(m, q, keys, descending);
      EXPECT_TRUE(descending ? std::is_sorted(keys.rbegin(), keys.rend())
                             : std::is_sorted(keys.begin(), keys.end()));
      const auto sched = ScheduleCache::instance().find(
          ScheduleKey{ObliviousSection::topology_identity(q),
                      "cube_bitonic_sort",
                      {d},
                      m.validating()});
      ASSERT_NE(sched, nullptr);
      ASSERT_EQ(sched->cycle_count(), d * (d + 1) / 2);
      std::size_t next = 0;
      for (unsigned k = 1; k <= d; ++k) {
        for (unsigned j = k; j-- > 0;) {
          const ScheduleCycle& c = sched->cycle(next++);
          for (net::NodeId u = 0; u < q.node_count(); ++u) {
            ASSERT_EQ(c.sender(u), bits::flip(u, j))
                << "k=" << k << " j=" << j << " u=" << u;
            if (bits::get(u, j) != 0) continue;
            const bool batcher = k == d ? !descending : bits::get(u, k) == 0;
            ASSERT_EQ(core::detail::cube_bitonic_keep_min(u, j, k, d,
                                                          descending),
                      batcher)
                << "k=" << k << " j=" << j << " u=" << u;
            ASSERT_EQ(core::detail::cube_bitonic_keep_min(
                          bits::flip(u, j), j, k, d, descending),
                      !batcher)
                << "k=" << k << " j=" << j << " u=" << u;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- the XOR-mask form

// Which oblivious algorithms compile their cycles to the six-word XOR-mask
// form, at n = 1..6 (n = 1..4 where the payload grows as N^2), pinned as
// compact/total cycles summed over the orders. Every link of the dual-cube
// family flips one label bit, so Algorithm 2 (dual_prefix) and Algorithm 3
// (dual_bitonic_network) must compress completely; a change that loses, or
// gains, the form anywhere shows up in this table.
TEST_F(ScheduleTest, XorFormCoverageIsPinned) {
  std::map<std::string, std::pair<std::size_t, std::size_t>> tally;
  const auto record = [&](const net::Topology& t, const std::string& algorithm,
                          std::vector<u64> params, const auto& run) {
    Machine m(t);
    m.set_schedule_path(SchedulePath::kCompiled);
    run(m);
    const auto s = ScheduleCache::instance().find(
        ScheduleKey{ObliviousSection::topology_identity(t), algorithm,
                    std::move(params), m.validating()});
    ASSERT_NE(s, nullptr) << algorithm;
    for (const ScheduleCycle& c : s->cycles()) {
      EXPECT_EQ(c.node_count(), t.node_count());
      tally[algorithm].first += c.is_compact() ? 1u : 0u;
      tally[algorithm].second += 1u;
    }
  };
  const core::Plus<u64> plus;
  for (unsigned n = 1; n <= 6; ++n) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    ScheduleCache::instance().clear();
    const net::DualCube d(n);
    const net::RecursiveDualCube r(n);
    const net::Hypercube q(n);
    const auto dv = random_values(d.node_count(), n);
    const auto qv = random_values(q.node_count(), n);
    const net::NodeId root = d.node_count() - 1;
    record(d, "dual_prefix", {n},
           [&](Machine& m) { (void)core::dual_prefix(m, d, plus, dv); });
    record(r, "dual_bitonic_network", {n}, [&](Machine& m) {
      auto keys = dv;
      core::dual_sort(m, r, keys);
    });
    record(r, "emulated_prefix", {n},
           [&](Machine& m) { (void)core::emulated_prefix(m, r, plus, dv); });
    record(r, "dimension_exchange", {n, 2 * n - 2}, [&](Machine& m) {
      (void)core::dimension_exchange(m, r, 2 * n - 2, dv);
    });
    record(d, "dual_broadcast", {root}, [&](Machine& m) {
      (void)collectives::dual_broadcast<u64>(m, d, root, 7);
    });
    record(d, "dual_reduce", {root}, [&](Machine& m) {
      (void)collectives::dual_reduce(m, d, root, plus, dv);
    });
    record(d, "dual_allreduce", {}, [&](Machine& m) {
      (void)collectives::dual_allreduce(m, d, plus, dv);
    });
    record(d, "tree_broadcast", {root}, [&](Machine& m) {
      (void)collectives::tree_broadcast<u64>(m, d, root, 7);
    });
    record(d, "tree_reduce", {root}, [&](Machine& m) {
      (void)collectives::tree_reduce(m, d, root, plus, dv);
    });
    const std::vector<u64> chunks = {1, 2, 3};
    if (n >= 2) {  // D_1 = K_2 has no Hamiltonian cycle
      record(d, "ring_pipeline_broadcast",
             {root, chunks.size(),
              collectives::ring_fingerprint(
                  net::dual_cube_hamiltonian_cycle(d))},
             [&](Machine& m) {
               (void)collectives::ring_pipeline_broadcast(m, d, root, chunks);
             });
    }
    record(q, "cube_prefix", {n}, [&](Machine& m) {
      (void)core::cube_prefix(m, q, plus, qv, true);
    });
    record(q, "cube_bitonic_sort", {n}, [&](Machine& m) {
      auto keys = qv;
      core::cube_bitonic_sort(m, q, keys);
    });
    record(q, "cube_broadcast", {root % q.node_count()}, [&](Machine& m) {
      (void)collectives::cube_broadcast<u64>(m, q, root % q.node_count(), 7);
    });
    record(q, "cube_reduce", {root % q.node_count()}, [&](Machine& m) {
      (void)collectives::cube_reduce(m, q, root % q.node_count(), plus, qv);
    });
    if (n > 4) continue;
    record(d, "dual_allgather", {n},
           [&](Machine& m) { (void)collectives::dual_allgather(m, d, dv); });
    record(q, "cube_allgather", {n},
           [&](Machine& m) { (void)collectives::cube_allgather(m, q, qv); });
    record(r, "dual_alltoall", {n}, [&](Machine& m) {
      std::vector<std::vector<u64>> messages(
          r.node_count(), std::vector<u64>(r.node_count(), n));
      (void)collectives::dual_alltoall(m, r, messages);
    });
  }
  std::map<std::string, std::string> got;
  for (const auto& [algorithm, counts] : tally)
    got[algorithm] = std::to_string(counts.first) + "/" +
                     std::to_string(counts.second);
  const std::map<std::string, std::string> expected = {
      {"cube_allgather", "10/10"},
      {"cube_bitonic_sort", "56/56"},
      {"cube_broadcast", "21/21"},
      {"cube_prefix", "21/21"},
      {"cube_reduce", "21/21"},
      {"dimension_exchange", "16/16"},
      {"dual_allgather", "20/20"},
      {"dual_allreduce", "42/42"},
      {"dual_alltoall", "40/40"},
      {"dual_bitonic_network", "411/411"},
      {"dual_broadcast", "42/42"},
      {"dual_prefix", "42/42"},
      {"dual_reduce", "42/42"},
      {"emulated_prefix", "96/96"},
      // Hamiltonian-ring steps and spanning-tree levels mostly pair nodes
      // by no single mask: those cycles stay dense.
      {"ring_pipeline_broadcast", "20/2733"},
      {"tree_broadcast", "11/51"},
      {"tree_reduce", "11/41"},
  };
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.at("dual_prefix"), "42/42");
  EXPECT_EQ(got.at("dual_bitonic_network"), "411/411");
}

// match_xor_form accepts a cycle only when its form reproduces every
// receiver's sender and every non-receiver.
TEST_F(ScheduleTest, MatchXorFormIsExact) {
  const std::size_t n = 16;
  const auto dest_of = [&](const XorForm& f) {
    std::vector<net::NodeId> dest(n, kNoSend);
    for (std::size_t v = 0; v < n; ++v)
      if (f.receives(v)) dest[f.sender_of(v)] = v;
    return dest;
  };
  for (const XorForm& f : {XorForm{8, 8, 0, 0, 0}, XorForm{1, 4, 3, 0, 0},
                           XorForm{2, 6, 0, 8, 8}, XorForm{3, 3, 0, 15, 9},
                           XorForm{12, 1, 1, 4, 0}}) {
    const auto dest = dest_of(f);
    const auto got = match_xor_form(dest.data(), n);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->fits(n));
    EXPECT_EQ(dest_of(*got), dest);
    EXPECT_EQ(got->message_count(n), f.message_count(n));
  }
  const auto rejects = [&](std::vector<net::NodeId> dest) {
    return !match_xor_form(dest.data(), dest.size()).has_value();
  };
  std::vector<net::NodeId> ring(n);
  for (std::size_t u = 0; u < n; ++u) ring[u] = (u + 1) % n;
  EXPECT_TRUE(rejects(ring));
  EXPECT_TRUE(rejects(std::vector<net::NodeId>(n, kNoSend)));  // no message
  auto three = std::vector<net::NodeId>(n, kNoSend);
  three[1] = 0;
  three[0] = 1;
  three[3] = 2;  // three receivers fill no subcube
  EXPECT_TRUE(rejects(three));
  // Masks 1 at receivers {0, 3} and 2 at {1, 2}: no single bit splits them.
  EXPECT_TRUE(rejects({2, 0, 3, 1}));
  // Mask 1 on receivers 0..3 and 2 on 4..7 fit (s = 2); sending 6 to 5
  // and 7 to 4 instead adds a third mask.
  EXPECT_FALSE(rejects({1, 0, 3, 2, 6, 7, 4, 5}));
  EXPECT_TRUE(rejects({1, 0, 3, 2, 6, 7, 5, 4}));
  EXPECT_TRUE(rejects({1, 0, 2}));  // three nodes: no power of two
}

// The compact replay kernel against the dense gather it stands in for:
// hand-built forms with runs of 1 to 64 rows replay, compact and as a dense
// copy built from sender(v), over a packed PlaneSrc (one block copy per
// run), a strided one, a tailed one and a callback, on a 4-worker pool at
// grain 1 so chunk boundaries split runs. Rows, receive flags, Counters and
// every directed pair's edge load (on-CSR or not) must agree.
TEST_F(ScheduleTest, CompactReplayMatchesItsDenseCopy) {
  const net::Hypercube q(6);
  const std::size_t n = q.node_count();
  const std::size_t width = 3;
  const std::vector<XorForm> forms = {
      {32, 32, 0, 0, 0},   // one bit, no predicate: two 32-row copies
      {1, 8, 5, 0, 0},     // odd mask: senders computed row by row
      {8, 16, 2, 0, 0},    // select bit 2 splits runs of 4
      {2, 2, 0, 32, 0},    // half the machine receives, runs of 2
      {4, 4, 0, 1, 1},     // odd receivers only
      {5, 5, 0, 63, 17},   // one receiver
      {0, 0, 0, 0, 0},     // every node from itself: one 64-row copy
      {48, 3, 4, 0, 0},    // multi-bit masks (no hypercube edges)
  };
  const auto values = random_values(n * 5, 21);
  const auto tail = random_values(n * 2, 22);
  ThreadPool pool(4);
  for (const XorForm& form : forms) {
    SCOPED_TRACE(testing::Message() << "m0=" << form.mask0 << " m1="
                                    << form.mask1 << " s=" << form.select
                                    << " p=" << form.recv_mask
                                    << " q=" << form.recv_match);
    ASSERT_TRUE(form.fits(n));
    const ScheduleCycle compact = ScheduleCycle::compact(n, form);
    ScheduleCycle dense;
    dense.recv_from.assign(n, kNoSender);
    dense.recv_slot.assign(n, kNoEdgeSlot);
    for (std::size_t v = 0; v < n; ++v) {
      const net::NodeId u = compact.sender(v);
      if (u == kNoSender) continue;
      dense.recv_from[v] = u;
      const std::size_t slot =
          q.flat_adjacency().edge_slot(u, static_cast<net::NodeId>(v));
      if (slot != net::FlatAdjacency::npos)
        dense.recv_slot[v] = static_cast<std::uint32_t>(slot);
      ++dense.message_count;
    }
    ASSERT_EQ(dense.message_count, compact.message_count);

    const auto replay = [&](const ScheduleCycle& cyc, int source,
                            bool loads) {
      Machine m(q);
      m.set_thread_pool(&pool);
      m.set_parallel_grain(1);
      if (loads) m.enable_edge_load();
      const auto run = [&](auto&& src) {
        const auto in = m.comm_cycle_scheduled_blocks<u64>(cyc, width, src);
        std::vector<std::vector<u64>> rows(n);
        for (net::NodeId v = 0; v < n; ++v)
          if (in.has(v)) rows[v].assign(in.block(v), in.block(v) + width);
        return rows;
      };
      std::vector<std::vector<u64>> rows;
      if (source == 0) rows = run(PlaneSrc<u64>{values.data(), width});
      if (source == 1) rows = run(PlaneSrc<u64>{values.data(), 5});
      if (source == 2)
        rows = run(PlaneSrc<u64>{values.data(), 5, tail.data(), 2, 1});
      if (source == 3) {
        rows = run([&](net::NodeId u, u64* dst) {
          for (std::size_t k = 0; k < width; ++k)
            dst[k] = values[u * 5 + k] + 1;
        });
      }
      std::vector<std::uint64_t> pair_loads;
      for (net::NodeId u = 0; loads && u < n; ++u)
        for (net::NodeId v = 0; v < n; ++v)
          pair_loads.push_back(u == v ? 0 : m.edge_load(u, v));
      return std::tuple{rows, m.counters(), pair_loads,
                        loads ? m.edge_load_merged()
                              : std::vector<std::uint64_t>{}};
    };
    for (int source = 0; source < 4; ++source) {
      for (const bool loads : {false, true}) {
        SCOPED_TRACE(testing::Message() << "source " << source
                                        << " loads " << loads);
        const auto got = replay(compact, source, loads);
        EXPECT_EQ(got, replay(dense, source, loads));
        const auto& rows = std::get<0>(got);
        EXPECT_EQ(static_cast<std::uint64_t>(std::count_if(
                      rows.begin(), rows.end(),
                      [](const auto& row) { return !row.empty(); })),
                  compact.message_count);
      }
    }
  }
}

// ------------------------------------------------- cache memory budgeting

Schedule make_schedule(std::size_t n, std::size_t cycles) {
  std::vector<ScheduleCycle> cyc(cycles);
  for (auto& c : cyc) {
    c.recv_from.assign(n, kNoSender);
    c.recv_slot.assign(n, kNoEdgeSlot);
  }
  return Schedule(std::move(cyc));
}

ScheduleKey key_named(const std::string& algo) {
  return ScheduleKey{"T#1", algo, {}, true};
}

class ScheduleCacheBudgetTest : public ScheduleTest {
 protected:
  void TearDown() override {
    ScheduleCache::instance().clear();
    ScheduleCache::instance().set_capacity_bytes(
        ScheduleCache::kDefaultCapacityBytes);
  }
};

TEST_F(ScheduleCacheBudgetTest, ByteAccountingTracksStoredSchedules) {
  auto& cache = ScheduleCache::instance();
  const auto s = std::make_shared<const Schedule>(make_schedule(64, 4));
  EXPECT_GT(s->byte_size(), 64u * 4u * sizeof(net::NodeId));
  cache.store(key_named("a"), s);
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, s->byte_size());
  EXPECT_EQ(st.capacity_bytes, ScheduleCache::kDefaultCapacityBytes);
  // Re-storing the same key must not double-count.
  cache.store(key_named("a"),
              std::make_shared<const Schedule>(make_schedule(64, 4)));
  EXPECT_EQ(cache.stats().bytes, s->byte_size());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(ScheduleCacheBudgetTest, EvictsLeastRecentlyUsedFirst) {
  auto& cache = ScheduleCache::instance();
  const auto one = std::make_shared<const Schedule>(make_schedule(32, 2));
  const std::size_t unit = one->byte_size();
  cache.set_capacity_bytes(2 * unit);  // room for exactly two entries

  cache.store(key_named("a"), one);
  cache.store(key_named("b"),
              std::make_shared<const Schedule>(make_schedule(32, 2)));
  EXPECT_EQ(cache.size(), 2u);
  // Touch "a" so "b" becomes the least recently used...
  EXPECT_NE(cache.find(key_named("a")), nullptr);
  // ...then push a third entry over the budget.
  cache.store(key_named("c"),
              std::make_shared<const Schedule>(make_schedule(32, 2)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(key_named("a")), nullptr) << "recently used survives";
  EXPECT_NE(cache.find(key_named("c")), nullptr) << "newest survives";
  EXPECT_EQ(cache.find(key_named("b")), nullptr) << "LRU entry is evicted";
  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.bytes, 2 * unit);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
}

TEST_F(ScheduleCacheBudgetTest, OversizeEntryIsKeptNeverThrashed) {
  auto& cache = ScheduleCache::instance();
  cache.set_capacity_bytes(1);  // nothing fits
  cache.store(key_named("big"),
              std::make_shared<const Schedule>(make_schedule(128, 8)));
  EXPECT_NE(cache.find(key_named("big")), nullptr)
      << "the entry being stored must survive its own insert, or every "
         "oversize schedule would record forever";
  // A second store evicts the old one (it is now the LRU tail).
  cache.store(key_named("big2"),
              std::make_shared<const Schedule>(make_schedule(128, 8)));
  EXPECT_EQ(cache.find(key_named("big")), nullptr);
  EXPECT_NE(cache.find(key_named("big2")), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(ScheduleCacheBudgetTest, ShrinkingCapacityEvictsImmediately) {
  auto& cache = ScheduleCache::instance();
  for (const char* name : {"a", "b", "c", "d"}) {
    cache.store(key_named(name),
                std::make_shared<const Schedule>(make_schedule(16, 1)));
  }
  EXPECT_EQ(cache.size(), 4u);
  const std::size_t unit = cache.stats().bytes / 4;
  cache.set_capacity_bytes(2 * unit);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.find(key_named("a")), nullptr) << "oldest evicted first";
  EXPECT_EQ(cache.find(key_named("b")), nullptr);
  EXPECT_NE(cache.find(key_named("d")), nullptr);
}

}  // namespace
}  // namespace dc::sim
