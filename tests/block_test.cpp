// Tests for the large-input extension (the paper's future-work item 1):
// block prefix and block sort with m keys per node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/block_prefix.hpp"
#include "core/block_sort.hpp"
#include "core/dual_sort.hpp"
#include "core/formulas.hpp"
#include "core/sequential.hpp"
#include "sim/schedule.hpp"
#include "support/rng.hpp"

namespace dc::core {
namespace {

std::vector<u64> random_values(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.below(10000);
  return v;
}

// gtest names each case after the raw bytes of its parameter, so the struct
// has no implicit padding: `pad` keeps the four bytes after `n` at zero and the
// test names the same from one build to the next.
struct BlockCase {
  unsigned n;
  unsigned pad = 0;
  std::size_t block;
};

std::pair<unsigned, std::size_t> unpack(const BlockCase& c) {
  return {c.n, c.block};
}

class BlockPrefixTest : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockPrefixTest, MatchesSequentialScan) {
  const auto [n, block] = unpack(GetParam());
  const net::DualCube d(n);
  sim::Machine m(d);
  const Plus<u64> op;
  const auto data = random_values(d.node_count() * block, n + block);
  EXPECT_EQ(block_prefix(m, d, op, data, block), seq_inclusive_scan(op, data));
}

TEST_P(BlockPrefixTest, CommIndependentOfBlockSize) {
  const auto [n, block] = unpack(GetParam());
  const net::DualCube d(n);
  sim::Machine m(d);
  const Plus<u64> op;
  const auto data = random_values(d.node_count() * block, 7);
  block_prefix(m, d, op, data, block);
  EXPECT_EQ(m.counters().comm_cycles, formulas::dual_prefix_comm_impl(n))
      << "only the totals travel; block size must not add communication";
  EXPECT_EQ(m.counters().comp_steps,
            2 * block + formulas::dual_prefix_comp(n) - 1);
}

TEST_P(BlockPrefixTest, NonCommutativeConcat) {
  const auto [n, block] = unpack(GetParam());
  const net::DualCube d(n);
  sim::Machine m(d);
  const Concat op;
  std::vector<std::string> data(d.node_count() * block);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = std::string(1, static_cast<char>('a' + (i % 26)));
  EXPECT_EQ(block_prefix(m, d, op, data, block), seq_inclusive_scan(op, data));
}

class BlockSortTest : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockSortTest, SortsAscendingAcrossAllDistributions) {
  const auto [n, block] = unpack(GetParam());
  const net::RecursiveDualCube r(n);
  for (const auto dist : all_key_distributions()) {
    sim::Machine m(r);
    auto data = generate_keys(dist, r.node_count() * block, n);
    auto expected = data;
    std::sort(expected.begin(), expected.end());
    block_sort(m, r, data, block);
    EXPECT_EQ(data, expected) << to_string(dist);
  }
}

TEST_P(BlockSortTest, SortsDescending) {
  const auto [n, block] = unpack(GetParam());
  const net::RecursiveDualCube r(n);
  sim::Machine m(r);
  auto data = random_values(r.node_count() * block, 3);
  auto expected = data;
  std::sort(expected.begin(), expected.end(), std::greater<>());
  block_sort(m, r, data, block, /*descending=*/true);
  EXPECT_EQ(data, expected);
}

// Per-directed-edge loads in a deterministic (CSR) order.
std::vector<u64> edge_loads(const sim::Machine& m, const net::Topology& t) {
  std::vector<u64> loads;
  for (net::NodeId u = 0; u < t.node_count(); ++u) {
    for (const net::NodeId v : t.neighbors(u))
      loads.push_back(m.edge_load(u, v));
  }
  return loads;
}

// Blocks ride dual_sort's schedule: the same cycles, messages and edge
// loads as an interpreted dual_sort, on record and on replay. Ops are the
// local sort's N*m plus, per network step, one compare and a 2m merge
// per node.
TEST_P(BlockSortTest, NetworkStepsMatchTheorem2PlusLocalSort) {
  const auto [n, block] = unpack(GetParam());
  const net::RecursiveDualCube r(n);
  const u64 nodes = r.node_count();
  const u64 steps = formulas::dual_sort_comp_exact(n);
  sim::Machine ref(r);
  ref.set_schedule_path(sim::SchedulePath::kInterpreted);
  ref.enable_edge_load();
  auto keys = random_values(nodes, 5);
  dual_sort(ref, r, keys);
  sim::ScheduleCache::instance().clear();
  for (const bool replay : {false, true}) {
    SCOPED_TRACE(replay ? "replay" : "record");
    sim::Machine m(r);
    m.set_schedule_path(sim::SchedulePath::kCompiled);
    m.enable_edge_load();
    auto data = random_values(nodes * block, 5);
    block_sort(m, r, data, block);
    EXPECT_EQ(m.replayed_cycles() > 0, replay);
    EXPECT_EQ(m.counters().comm_cycles, formulas::dual_sort_comm_exact(n));
    EXPECT_EQ(m.counters().comp_steps, steps + 1);
    EXPECT_EQ(m.counters().messages, ref.counters().messages);
    EXPECT_EQ(edge_loads(m, r), edge_loads(ref, r));
    EXPECT_EQ(m.counters().ops,
              nodes * block + steps * nodes * (2 * block + 1));
  }
}

std::vector<BlockCase> block_cases() {
  return {{.n = 1, .block = 1}, {.n = 1, .block = 4}, {.n = 2, .block = 1},
          {.n = 2, .block = 3}, {.n = 2, .block = 16}, {.n = 3, .block = 2},
          {.n = 3, .block = 8}, {.n = 4, .block = 4}};
}

// The block sort also runs the block sort benchmark's shape, RD_4 at width
// 256. The block prefix does not: its Concat scan would hold 32,768 strings
// of up to 32,768 characters twice over (1.7 GiB).
std::vector<BlockCase> block_sort_cases() {
  auto cases = block_cases();
  cases.push_back({.n = 4, .block = 256});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, BlockPrefixTest,
                         ::testing::ValuesIn(block_cases()),
                         [](const auto& param_info) {
                           return "D" + std::to_string(param_info.param.n) +
                                  "_m" + std::to_string(param_info.param.block);
                         });
INSTANTIATE_TEST_SUITE_P(Cases, BlockSortTest,
                         ::testing::ValuesIn(block_sort_cases()),
                         [](const auto& param_info) {
                           return "D" + std::to_string(param_info.param.n) +
                                  "_m" + std::to_string(param_info.param.block);
                         });

TEST(BlockPrefix, BlockOfOneEqualsDualPrefix) {
  const net::DualCube d(3);
  const Plus<u64> op;
  const auto data = random_values(d.node_count(), 9);
  sim::Machine m1(d);
  sim::Machine m2(d);
  EXPECT_EQ(block_prefix(m1, d, op, data, 1), dual_prefix(m2, d, op, data));
}

// A record ordered by its key alone, so equal keys with different tags
// show which input a merge took.
struct Tagged {
  unsigned key;
  unsigned tag;
  bool operator<(const Tagged& o) const { return key < o.key; }
  bool operator==(const Tagged&) const = default;
};

// The two-pointer merge-split that detail::merge_split's select chains
// replace: the min side scans from the fronts and takes a's key on ties,
// the max side scans from the backs and keeps a's key on ties.
template <typename Key>
std::vector<Key> two_pointer_merge_split(const std::vector<Key>& a,
                                         const std::vector<Key>& b,
                                         bool keep_min) {
  const std::size_t width = a.size();
  std::vector<Key> out(width);
  if (keep_min) {
    std::size_t ia = 0, ib = 0;
    for (std::size_t k = 0; k < width; ++k) {
      const bool take_a = ib == width || (ia < width && !(b[ib] < a[ia]));
      out[k] = take_a ? a[ia++] : b[ib++];
    }
  } else {
    std::size_t ia = width, ib = width;
    for (std::size_t k = width; k-- > 0;) {
      const bool take_a = ib == 0 || (ia > 0 && !(a[ia - 1] < b[ib - 1]));
      out[k] = take_a ? a[--ia] : b[--ib];
    }
  }
  return out;
}

// On sorted blocks with heavy ties, detail::merge_split keeps exactly the
// records of the two-pointer scan at every width, odd and even, on both
// sides: interleaved, disjoint and touching blocks alike.
TEST(BlockSort, MergeSplitKeepsTheTwoPointerTieRuleAtEveryWidth) {
  std::vector<std::size_t> widths = {255, 256, 257};
  for (std::size_t w = 1; w <= 40; ++w) widths.push_back(w);
  Rng rng(17);
  for (const std::size_t width : widths) {
    for (const u64 range : {u64{1}, u64{2}, u64{3}, u64{width / 2 + 1},
                            u64{2 * width + 3}}) {
      for (int trial = 0; trial < 12; ++trial) {
        // An offset on one side makes some pairs touch or stay disjoint.
        const u64 shift = rng.below(3) == 0 ? rng.below(range + 1) : 0;
        std::vector<Tagged> a(width), b(width);
        for (std::size_t i = 0; i < width; ++i) {
          a[i].key = static_cast<unsigned>(rng.below(range) + shift);
          b[i].key = static_cast<unsigned>(rng.below(range));
        }
        if (trial % 2 == 1) std::swap(a, b);
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        for (std::size_t i = 0; i < width; ++i) {
          a[i].tag = static_cast<unsigned>(i);
          b[i].tag = static_cast<unsigned>(1000 + i);
        }
        for (const bool keep_min : {true, false}) {
          std::vector<Tagged> got(width);
          detail::merge_split(a.data(), b.data(), width, keep_min, got.data());
          ASSERT_EQ(got, two_pointer_merge_split(a, b, keep_min))
              << "width " << width << " range " << range << " trial "
              << trial << (keep_min ? " keep-min" : " keep-max");
        }
      }
    }
  }
}

// 4-byte keys straddling 0 and the sign bit, where an unsigned key
// compared as signed (or the reverse) would reorder: detail::merge_split,
// the only merge of 4-byte keys, keeps the two-pointer scan's keys on
// every prefix width of these blocks, both ways round and on both sides.
template <typename Key>
void expect_two_pointer_order(const std::vector<Key>& a,
                              const std::vector<Key>& b) {
  for (std::size_t width = 1; width <= a.size(); ++width) {
    const auto end = static_cast<std::ptrdiff_t>(width);
    const std::vector<Key> pa(a.begin(), a.begin() + end);
    const std::vector<Key> pb(b.begin(), b.begin() + end);
    for (const auto& [x, y] : {std::pair{pa, pb}, std::pair{pb, pa}}) {
      for (const bool keep_min : {true, false}) {
        std::vector<Key> got(width);
        detail::merge_split(x.data(), y.data(), width, keep_min, got.data());
        EXPECT_EQ(got, two_pointer_merge_split(x, y, keep_min))
            << sizeof(Key) << "-byte key, width " << width
            << (keep_min ? " keep-min" : " keep-max");
      }
    }
  }
}

TEST(BlockSort, MergeSplitOrdersAroundSignAndBiasBoundaries) {
  expect_two_pointer_order<u32>(
      {0, 1, 2, 3, 0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u, 0x80000001u},
      {2, 4, 5, 6, 0x7FFFFFFDu, 0x80000000u, 0xFFFFFFFEu, 0xFFFFFFFFu});
  expect_two_pointer_order<std::int32_t>({-9, -5, -1, 0, 1, 3, 4, 8},
                                         {-8, -6, -2, 0, 2, 5, 7, 9});
}

TEST(BlockSort, RejectsBadSizes) {
  const net::RecursiveDualCube r(2);
  sim::Machine m(r);
  std::vector<u64> data(7);
  EXPECT_THROW(block_sort(m, r, data, 2), CheckError);
  EXPECT_THROW(block_sort(m, r, data, 0), CheckError);
}

TEST(BlockPrefix, RejectsBadSizes) {
  const net::DualCube d(2);
  sim::Machine m(d);
  const Plus<u64> op;
  EXPECT_THROW(block_prefix(m, d, op, std::vector<u64>(7), 2), CheckError);
  EXPECT_THROW(block_prefix(m, d, op, std::vector<u64>(8), 0), CheckError);
}

}  // namespace
}  // namespace dc::core
