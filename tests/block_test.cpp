// Tests for the large-input extension (the paper's future-work item 1):
// block prefix and block sort with m keys per node.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/block_prefix.hpp"
#include "core/block_sort.hpp"
#include "core/formulas.hpp"
#include "core/sequential.hpp"
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

TEST_P(BlockSortTest, NetworkStepsMatchTheorem2PlusLocalSort) {
  const auto [n, block] = unpack(GetParam());
  const net::RecursiveDualCube r(n);
  sim::Machine m(r);
  auto data = random_values(r.node_count() * block, 5);
  block_sort(m, r, data, block);
  EXPECT_EQ(m.counters().comm_cycles, formulas::dual_sort_comm_exact(n))
      << "blocks ride the same schedule as scalars";
  EXPECT_EQ(m.counters().comp_steps, formulas::dual_sort_comp_exact(n) + 1);
}

std::vector<BlockCase> block_cases() {
  return {{.n = 1, .block = 1}, {.n = 1, .block = 4}, {.n = 2, .block = 1},
          {.n = 2, .block = 3}, {.n = 2, .block = 16}, {.n = 3, .block = 2},
          {.n = 3, .block = 8}, {.n = 4, .block = 4}};
}

INSTANTIATE_TEST_SUITE_P(Cases, BlockPrefixTest,
                         ::testing::ValuesIn(block_cases()),
                         [](const auto& param_info) {
                           return "D" + std::to_string(param_info.param.n) +
                                  "_m" + std::to_string(param_info.param.block);
                         });
INSTANTIATE_TEST_SUITE_P(Cases, BlockSortTest,
                         ::testing::ValuesIn(block_cases()),
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
