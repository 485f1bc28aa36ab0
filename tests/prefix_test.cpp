// Tests for Algorithms 1 and 2: correctness against sequential scans over
// many sizes, monoids (including non-commutative ones), inclusive and
// diminished variants — and exact step counts against Theorem 1.
#include <gtest/gtest.h>

#include <numeric>

#include "core/block_prefix.hpp"
#include "core/cube_prefix.hpp"
#include "core/dual_prefix.hpp"
#include "core/emulated_prefix.hpp"
#include "core/formulas.hpp"
#include "core/sequential.hpp"
#include "core/sharded_prefix.hpp"
#include "sim/schedule.hpp"
#include "sim/shard.hpp"
#include "support/rng.hpp"

namespace dc::core {

// Readable failure output for the certificate below.
void PrintTo(const Interval::value_type& v, std::ostream* os) {
  *os << "[" << v.lo << ", " << v.hi << "]";
}

namespace {

std::vector<u64> random_values(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.below(1000);
  return v;
}

std::vector<std::string> letter_values(std::size_t n) {
  std::vector<std::string> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::string(1, static_cast<char>('a' + (i % 26)));
  return v;
}

std::vector<Mat2::value_type> random_matrices(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<Mat2::value_type> v(n);
  for (auto& x : v) x = {rng.below(9), rng.below(9), rng.below(9), rng.below(9)};
  return v;
}

// ------------------------------------------------------------- Algorithm 1

class CubePrefixTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(CubePrefixTest, InclusiveSumMatchesSequential) {
  const unsigned d = GetParam();
  const net::Hypercube q(d);
  sim::Machine m(q);
  const Plus<u64> op;
  const auto c = random_values(q.node_count(), d);
  const auto out = cube_prefix(m, q, op, c, /*inclusive=*/true);
  EXPECT_EQ(out.prefix, seq_inclusive_scan(op, c));
  // Every node's t is the grand total.
  const u64 total = seq_reduce(op, c);
  for (const u64 t : out.total) EXPECT_EQ(t, total);
}

TEST_P(CubePrefixTest, DiminishedSumMatchesSequential) {
  const unsigned d = GetParam();
  const net::Hypercube q(d);
  sim::Machine m(q);
  const Plus<u64> op;
  const auto c = random_values(q.node_count(), d + 100);
  const auto out = cube_prefix(m, q, op, c, /*inclusive=*/false);
  EXPECT_EQ(out.prefix, seq_exclusive_scan(op, c));
}

TEST_P(CubePrefixTest, StepCountsMatchAlgorithm1) {
  const unsigned d = GetParam();
  const net::Hypercube q(d);
  sim::Machine m(q);
  const Plus<u64> op;
  cube_prefix(m, q, op, random_values(q.node_count(), 1), true);
  EXPECT_EQ(m.counters().comm_cycles, formulas::cube_prefix_comm(d));
  EXPECT_EQ(m.counters().comp_steps, formulas::cube_prefix_comp(d));
}

TEST_P(CubePrefixTest, NonCommutativeConcat) {
  // Prefixes under string concatenation spell the exact combination order:
  // any operand reordering would change the result.
  const unsigned d = GetParam();
  const net::Hypercube q(d);
  sim::Machine m(q);
  const Concat op;
  const auto c = letter_values(q.node_count());
  const auto out = cube_prefix(m, q, op, c, true);
  EXPECT_EQ(out.prefix, seq_inclusive_scan(op, c));
}

TEST_P(CubePrefixTest, MinAndMax) {
  const unsigned d = GetParam();
  const net::Hypercube q(d);
  const auto c = random_values(q.node_count(), d + 7);
  {
    sim::Machine m(q);
    const Min<u64> op;
    EXPECT_EQ(cube_prefix(m, q, op, c, true).prefix, seq_inclusive_scan(op, c));
  }
  {
    sim::Machine m(q);
    const Max<u64> op;
    EXPECT_EQ(cube_prefix(m, q, op, c, true).prefix, seq_inclusive_scan(op, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, CubePrefixTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 6u, 8u, 10u));

TEST(CubePrefix, RejectsWrongInputSize) {
  const net::Hypercube q(3);
  sim::Machine m(q);
  const Plus<u64> op;
  EXPECT_THROW(cube_prefix(m, q, op, std::vector<u64>(7), true), CheckError);
}

TEST(CubePrefix, RejectsMismatchedMachine) {
  const net::Hypercube q(3);
  const net::Hypercube other(3);
  sim::Machine m(other);
  const Plus<u64> op;
  EXPECT_THROW(cube_prefix(m, q, op, std::vector<u64>(8), true), CheckError);
}

// ---------------------------------------------------------------- arrangement

class ArrangementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ArrangementTest, IndexMapIsABijectionAndRoundTrips) {
  const net::DualCube d(GetParam());
  std::vector<bool> seen(d.node_count(), false);
  for (net::NodeId u = 0; u < d.node_count(); ++u) {
    const net::NodeId idx = dual_prefix_index_of_node(d, u);
    ASSERT_LT(idx, d.node_count());
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
    EXPECT_EQ(dual_prefix_node_of_index(d, idx), u);
  }
}

TEST_P(ArrangementTest, ClassZeroIsIdentity) {
  const net::DualCube d(GetParam());
  for (net::NodeId u = 0; u < d.node_count(); ++u) {
    if (d.node_class(u) == 0) {
      EXPECT_EQ(dual_prefix_index_of_node(d, u), u);
    } else {
      EXPECT_GE(dual_prefix_index_of_node(d, u), d.node_count() / 2);
    }
  }
}

TEST_P(ArrangementTest, IndicesConsecutiveWithinEveryCluster) {
  // The paper's stated purpose of the arrangement (Section 3).
  const net::DualCube d(GetParam());
  for (unsigned cls = 0; cls <= 1; ++cls) {
    for (u64 c = 0; c < d.clusters_per_class(); ++c) {
      std::vector<net::NodeId> indices;
      for (const net::NodeId u : d.cluster_members(cls, c))
        indices.push_back(dual_prefix_index_of_node(d, u));
      std::sort(indices.begin(), indices.end());
      for (std::size_t i = 1; i < indices.size(); ++i)
        EXPECT_EQ(indices[i], indices[i - 1] + 1)
            << "cluster (" << cls << "," << c << ") holds a gap";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ArrangementTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------------------- Algorithm 2

class DualPrefixTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DualPrefixTest, InclusiveSumMatchesSequential) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  const Plus<u64> op;
  const auto data = random_values(d.node_count(), n);
  EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
}

TEST_P(DualPrefixTest, DiminishedSumMatchesSequential) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  const Plus<u64> op;
  const auto data = random_values(d.node_count(), n + 50);
  EXPECT_EQ(dual_prefix(m, d, op, data, {}, /*inclusive=*/false),
            seq_exclusive_scan(op, data));
}

TEST_P(DualPrefixTest, StepCountsMatchTheorem1) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  const Plus<u64> op;
  dual_prefix(m, d, op, random_values(d.node_count(), 3));
  const auto c = m.counters();
  EXPECT_EQ(c.comm_cycles, formulas::dual_prefix_comm_impl(n));
  EXPECT_LE(c.comm_cycles, formulas::dual_prefix_comm_paper(n));
  EXPECT_EQ(c.comp_steps, formulas::dual_prefix_comp(n));
}

TEST_P(DualPrefixTest, NonCommutativeConcat) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  const Concat op;
  const auto data = letter_values(d.node_count());
  EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
}

TEST_P(DualPrefixTest, NonCommutativeMatrices) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  sim::Machine m(d);
  const Mat2 op;
  const auto data = random_matrices(d.node_count(), n + 9);
  EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
}

TEST_P(DualPrefixTest, MinMaxXor) {
  const unsigned n = GetParam();
  const net::DualCube d(n);
  const auto data = random_values(d.node_count(), n + 77);
  {
    sim::Machine m(d);
    const Min<u64> op;
    EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
  }
  {
    sim::Machine m(d);
    const Max<u64> op;
    EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
  }
  {
    sim::Machine m(d);
    const Xor<u64> op;
    EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, DualPrefixTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(DualPrefix, PaperWorkedExample) {
  // Figure 3: prefix sums of 1..32 on D_3 are 1, 3, 6, ..., 528.
  const net::DualCube d(3);
  sim::Machine m(d);
  const Plus<u64> op;
  std::vector<u64> data(32);
  std::iota(data.begin(), data.end(), 1);
  const auto out = dual_prefix(m, d, op, data);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(out[i], (i + 1) * (i + 2) / 2);
  EXPECT_EQ(out.back(), 528u);
}

TEST(DualPrefix, ObserverSeesAllSixStages) {
  const net::DualCube d(2);
  sim::Machine m(d);
  const Plus<u64> op;
  std::vector<std::string> stages;
  dual_prefix<Plus<u64>>(
      m, d, op, random_values(d.node_count(), 5),
      [&](const std::string& stage, const auto& arrays) {
        stages.push_back(stage);
        for (const auto& [name, values] : arrays)
          EXPECT_EQ(values.size(), d.node_count());
      });
  ASSERT_EQ(stages.size(), 6u);
  EXPECT_NE(stages[0].find("original"), std::string::npos);
  EXPECT_NE(stages[5].find("final"), std::string::npos);
}

TEST(DualPrefix, AllOnesGivesRanks) {
  const net::DualCube d(4);
  sim::Machine m(d);
  const Plus<u64> op;
  const std::vector<u64> ones(d.node_count(), 1);
  const auto out = dual_prefix(m, d, op, ones);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(DualPrefix, WraparoundAdditionStaysAssociative) {
  const net::DualCube d(3);
  sim::Machine m(d);
  const Plus<u64> op;
  std::vector<u64> data(d.node_count(), ~u64{0} / 3);
  EXPECT_EQ(dual_prefix(m, d, op, data), seq_inclusive_scan(op, data));
}

// ------------------------------------------------------- emulation ablation

class EmulatedPrefixTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EmulatedPrefixTest, MatchesSequentialInLabelOrder) {
  const unsigned n = GetParam();
  const net::RecursiveDualCube r(n);
  sim::Machine m(r);
  const Plus<u64> op;
  const auto c = random_values(r.node_count(), n + 13);
  EXPECT_EQ(emulated_prefix(m, r, op, c), seq_inclusive_scan(op, c));
}

TEST_P(EmulatedPrefixTest, CostsThreeTimesTheClusterTechnique) {
  const unsigned n = GetParam();
  const net::RecursiveDualCube r(n);
  sim::Machine m(r);
  const Plus<u64> op;
  emulated_prefix(m, r, op, random_values(r.node_count(), 2));
  EXPECT_EQ(m.counters().comm_cycles, formulas::emulated_prefix_comm(n));
  EXPECT_EQ(m.counters().comp_steps, formulas::emulated_prefix_comp(n));
  if (n >= 3) {
    // The ~3x overhead the paper's conclusion warns about.
    EXPECT_GE(m.counters().comm_cycles,
              2 * formulas::dual_prefix_comm_impl(n));
  }
}

TEST_P(EmulatedPrefixTest, NonCommutativeConcat) {
  const unsigned n = GetParam();
  const net::RecursiveDualCube r(n);
  sim::Machine m(r);
  const Concat op;
  const auto c = letter_values(r.node_count());
  EXPECT_EQ(emulated_prefix(m, r, op, c), seq_inclusive_scan(op, c));
}

INSTANTIATE_TEST_SUITE_P(Orders, EmulatedPrefixTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------------------- monoid laws

TEST(Monoids, AssociativityAndIdentitySpotChecks) {
  Rng rng(99);
  const Mat2 mat;
  const Concat cat;
  for (int trial = 0; trial < 200; ++trial) {
    const Mat2::value_type a = {rng.below(50), rng.below(50), rng.below(50),
                                rng.below(50)};
    const Mat2::value_type b = {rng.below(50), rng.below(50), rng.below(50),
                                rng.below(50)};
    const Mat2::value_type c = {rng.below(50), rng.below(50), rng.below(50),
                                rng.below(50)};
    EXPECT_EQ(mat.combine(mat.combine(a, b), c),
              mat.combine(a, mat.combine(b, c)));
    EXPECT_EQ(mat.combine(a, mat.identity()), a);
    EXPECT_EQ(mat.combine(mat.identity(), a), a);
  }
  EXPECT_EQ(cat.combine("ab", cat.combine("cd", "ef")), "abcdef");
  EXPECT_EQ(cat.combine(cat.identity(), "x"), "x");
}

TEST(Monoids, Mat2IsNotCommutative) {
  const Mat2 mat;
  const Mat2::value_type a = {1, 2, 3, 4};
  const Mat2::value_type b = {0, 1, 1, 0};
  EXPECT_NE(mat.combine(a, b), mat.combine(b, a));
}

// ------------------------------------------------- interval certificate
//
// Interval joins only adjacent index ranges, in order, and anything else
// gives an absorbing ⊥. A run over the inputs [i, i] that leaves [0, i]
// at every index i (diminished: [0, i-1], empty at 0) is therefore a
// proof that the same schedule computes x_0 ⊕ … ⊕ x_i for every
// associative ⊕, commutative or not. It reaches every engine: the flat
// interpreted, record and replay paths, the replayed tiles and their
// class-1 strips, Algorithm 1 alone, the naive emulation, the block
// scan's generic row combine, and the sharded fused sweeps, resident,
// spilling and out of core, which Concat (not plane-eligible) cannot.

TEST(IntervalCertificate, MonoidIsExactlyAssociative) {
  const Interval op;
  std::vector<Interval::value_type> values{op.identity(), Interval::bottom()};
  for (u64 lo = 0; lo < 4; ++lo)
    for (u64 hi = lo; hi < 4; ++hi) values.push_back(Interval::range(lo, hi));
  for (const auto& a : values) {
    EXPECT_EQ(op.combine(op.identity(), a), a);
    EXPECT_EQ(op.combine(a, op.identity()), a);
    EXPECT_EQ(op.combine(Interval::bottom(), a), Interval::bottom());
    for (const auto& b : values) {
      for (const auto& c : values) {
        EXPECT_EQ(op.combine(op.combine(a, b), c),
                  op.combine(a, op.combine(b, c)));
      }
    }
  }
  EXPECT_EQ(op.combine(Interval::range(0, 1), Interval::range(2, 5)),
            Interval::range(0, 5));
  EXPECT_EQ(op.combine(Interval::range(2, 5), Interval::range(0, 1)),
            Interval::bottom());
  EXPECT_EQ(op.combine(Interval::range(0, 1), Interval::range(3, 5)),
            Interval::bottom());
}

std::vector<Interval::value_type> unit_ranges(std::size_t n) {
  std::vector<Interval::value_type> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Interval::range(i, i);
  return v;
}

// Every index holds its prefix range; reports the first index that does
// not, instead of one failure per node.
void expect_certified(const std::vector<Interval::value_type>& out,
                      bool inclusive) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Interval::value_type want =
        inclusive ? Interval::range(0, i)
        : i == 0  ? Interval{}.identity()
                  : Interval::range(0, i - 1);
    if (out[i] != want) {
      ADD_FAILURE() << "index " << i << " holds "
                    << testing::PrintToString(out[i]) << ", want "
                    << testing::PrintToString(want);
      return;
    }
  }
}

// The paths a flat run can take, in the order that makes the last one a
// replay: interpreted (small orders only), then a compiled run that
// records and one that replays.
std::vector<sim::SchedulePath> flat_paths(bool interpreted) {
  std::vector<sim::SchedulePath> paths{sim::SchedulePath::kCompiled,
                                       sim::SchedulePath::kCompiled};
  if (interpreted) paths.insert(paths.begin(), sim::SchedulePath::kInterpreted);
  return paths;
}

TEST(IntervalCertificate, DualPrefixOnEveryFlatPath) {
  const Interval op;
  for (unsigned n = 1; n <= 9; ++n) {
    const net::DualCube d(n);
    const auto data = unit_ranges(d.node_count());
    for (const bool inclusive : {true, false}) {
      SCOPED_TRACE(testing::Message() << "D_" << n
                                      << " inclusive=" << inclusive);
      const auto paths = flat_paths(n <= 6);
      sim::ScheduleCache::instance().clear();
      for (std::size_t run = 0; run < paths.size(); ++run) {
        sim::Machine m(d);
        m.set_schedule_path(paths[run]);
        expect_certified(dual_prefix(m, d, op, data, {}, inclusive),
                         inclusive);
        const auto c = m.counters();
        EXPECT_EQ(c.comm_cycles, formulas::dual_prefix_comm_impl(n));
        EXPECT_LE(c.comm_cycles, formulas::dual_prefix_comm_paper(n));
        EXPECT_EQ(c.comp_steps, formulas::dual_prefix_comp(n));
        // The last run replays the schedule the run before it recorded.
        EXPECT_EQ(m.replayed_cycles(),
                  run + 1 == paths.size() ? c.comm_cycles : 0u);
      }
    }
  }
}

// Algorithm 1 on Q_1..Q_12: every prefix and, since t is the block total
// of the whole cube after the last dimension, every node's t.
TEST(IntervalCertificate, CubePrefixOnEveryPath) {
  const Interval op;
  for (unsigned dim = 1; dim <= 12; ++dim) {
    const net::Hypercube q(dim);
    const auto data = unit_ranges(q.node_count());
    for (const bool inclusive : {true, false}) {
      SCOPED_TRACE(testing::Message() << "Q_" << dim
                                      << " inclusive=" << inclusive);
      const auto paths = flat_paths(true);
      sim::ScheduleCache::instance().clear();
      for (std::size_t run = 0; run < paths.size(); ++run) {
        sim::Machine m(q);
        m.set_schedule_path(paths[run]);
        const auto out = cube_prefix(m, q, op, data, inclusive);
        expect_certified(out.prefix, inclusive);
        EXPECT_EQ(out.total, std::vector<Interval::value_type>(
                                 q.node_count(),
                                 Interval::range(0, q.node_count() - 1)));
        const auto c = m.counters();
        EXPECT_EQ(c.comm_cycles, formulas::cube_prefix_comm(dim));
        EXPECT_EQ(c.comp_steps, formulas::cube_prefix_comp(dim));
        EXPECT_EQ(m.replayed_cycles(),
                  run + 1 == paths.size() ? c.comm_cycles : 0u);
      }
    }
  }
}

// The naive hypercube emulation on RD_1..RD_6 (inclusive only).
TEST(IntervalCertificate, EmulatedPrefixOnEveryPath) {
  const Interval op;
  for (unsigned n = 1; n <= 6; ++n) {
    SCOPED_TRACE(testing::Message() << "RD_" << n);
    const net::RecursiveDualCube r(n);
    const auto data = unit_ranges(r.node_count());
    const auto paths = flat_paths(true);
    sim::ScheduleCache::instance().clear();
    for (std::size_t run = 0; run < paths.size(); ++run) {
      sim::Machine m(r);
      m.set_schedule_path(paths[run]);
      expect_certified(emulated_prefix(m, r, op, data), true);
      const auto c = m.counters();
      EXPECT_EQ(c.comm_cycles, formulas::emulated_prefix_comm(n));
      EXPECT_EQ(c.comp_steps, formulas::emulated_prefix_comp(n));
      EXPECT_EQ(m.replayed_cycles(),
                run + 1 == paths.size() ? c.comm_cycles : 0u);
    }
  }
}

// The block scan (inclusive only) over m keys per node: both local phases
// run detail::combine_rows' generic loop, around Algorithm 2's diminished
// prefix of the block totals. Only the totals travel, so the cycles are
// Theorem 1's, and the local phases add 2m - 1 steps.
TEST(IntervalCertificate, BlockPrefixOnEveryFlatPath) {
  const Interval op;
  for (unsigned n = 1; n <= 5; ++n) {
    const net::DualCube d(n);
    for (const std::size_t block : {1u, 3u, 16u}) {
      SCOPED_TRACE(testing::Message() << "D_" << n << " m=" << block);
      const auto data = unit_ranges(d.node_count() * block);
      const auto paths = flat_paths(true);
      sim::ScheduleCache::instance().clear();
      for (std::size_t run = 0; run < paths.size(); ++run) {
        sim::Machine m(d);
        m.set_schedule_path(paths[run]);
        expect_certified(block_prefix(m, d, op, data, block), true);
        const auto c = m.counters();
        EXPECT_EQ(c.comm_cycles, formulas::dual_prefix_comm_impl(n));
        EXPECT_LE(c.comm_cycles, formulas::dual_prefix_comm_paper(n));
        EXPECT_EQ(c.comp_steps, 2 * block + formulas::dual_prefix_comp(n) - 1);
        EXPECT_EQ(m.replayed_cycles(),
                  run + 1 == paths.size() ? c.comm_cycles : 0u);
      }
    }
  }
}

TEST(IntervalCertificate, ShardedDualPrefixResidentSpillingAndOutOfCore) {
  const Interval op;
  constexpr std::size_t kBytes = sizeof(Interval::value_type);
  for (unsigned n = 4; n <= 5; ++n) {
    const net::DualCube d(n);
    const auto data = unit_ranges(d.node_count());
    for (const unsigned k : {1u, 2u, 4u}) {
      const sim::ShardEngine probe(d, k);
      const std::size_t spill = probe.working_bytes(kBytes) + 1;
      const std::size_t floor = probe.oc_floor_bytes(kBytes);
      // No budget: resident. Just above one shard's working set: the
      // result store spills. Two and three times the streaming floor:
      // every shard streams out of core, through whole and ragged windows.
      for (const std::size_t budget :
           {std::size_t{0}, spill, 2 * floor, 3 * floor}) {
        for (const bool inclusive : {true, false}) {
          SCOPED_TRACE(testing::Message() << "D_" << n << " K=" << k
                                          << " budget=" << budget
                                          << " inclusive=" << inclusive);
          sim::ShardEngine eng(d, k, budget);
          ASSERT_EQ(eng.will_spill(kBytes), budget != 0);
          ASSERT_EQ(eng.out_of_core(kBytes), budget != 0 && budget < spill);
          expect_certified(sharded_dual_prefix(eng, op, data, inclusive),
                           inclusive);
          // The run took the regime the budget predicts: a spilling run
          // wrote its result store out and stayed in core.
          EXPECT_EQ(eng.stats().last_run_spilled, budget != 0);
          EXPECT_EQ(eng.stats().last_run_out_of_core,
                    budget != 0 && budget < spill);
          EXPECT_EQ(eng.stats().spill_bytes > 0, budget != 0);
          EXPECT_EQ(eng.counters().comm_cycles,
                    formulas::dual_prefix_comm_impl(n));
          EXPECT_EQ(eng.counters().comp_steps, formulas::dual_prefix_comp(n));
        }
      }
    }
  }
}

}  // namespace
}  // namespace dc::core
