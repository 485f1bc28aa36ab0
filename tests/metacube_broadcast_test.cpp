// Tests for the generalized metacube broadcast — including the k = 1
// degeneration to the dual-cube schedule.
#include <gtest/gtest.h>

#include "collectives/broadcast.hpp"
#include "collectives/metacube_broadcast.hpp"

namespace dc::collectives {
namespace {

struct McCase {
  unsigned k;
  unsigned m;
};

class MetacubeBroadcastTest : public ::testing::TestWithParam<McCase> {};

TEST_P(MetacubeBroadcastTest, ReachesEveryNodeFromSampledRoots) {
  const auto [k, mm] = GetParam();
  const net::Metacube mc(k, mm);
  const net::NodeId step = std::max<net::NodeId>(1, mc.node_count() / 7);
  for (net::NodeId root = 0; root < mc.node_count(); root += step) {
    sim::Machine m(mc);
    const auto out = metacube_broadcast<u64>(m, mc, root, root + 3);
    for (const u64 v : out) ASSERT_EQ(v, root + 3);
    // Cycle bound: class walk + field sweeps + Gray hops + class doubling.
    const u64 bound = bits::popcount(mc.class_of(root)) +
                      bits::pow2(k) * mm + (bits::pow2(k) - 1) + k;
    EXPECT_LE(m.counters().comm_cycles, bound) << "root " << root;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, MetacubeBroadcastTest,
                         ::testing::Values(McCase{0, 3}, McCase{1, 1},
                                           McCase{1, 2}, McCase{1, 3},
                                           McCase{2, 1}, McCase{2, 2}),
                         [](const auto& param_info) {
                           // Appended piecewise: GCC 12 at -O3 reports a
                           // false -Wrestrict on the chained operator+.
                           std::string name = "k";
                           name += std::to_string(param_info.param.k);
                           name += "m";
                           name += std::to_string(param_info.param.m);
                           return name;
                         });

TEST(MetacubeBroadcast, K1MatchesDualCubeCycleCount) {
  // MC(1, m) is D_(m+1); from a class-0 root the generalized schedule
  // costs 2m + 2 = 2n cycles, like dual_broadcast.
  for (unsigned mm : {1u, 2u, 3u}) {
    const net::Metacube mc(1, mm);
    const net::DualCube d(mm + 1);
    sim::Machine m1(mc);
    metacube_broadcast<int>(m1, mc, 0, 1);
    sim::Machine m2(d);
    dual_broadcast<int>(m2, d, 0, 1);
    EXPECT_EQ(m1.counters().comm_cycles, m2.counters().comm_cycles)
        << "m=" << mm;
    EXPECT_EQ(m1.counters().comm_cycles, 2 * (mm + 1));
  }
}

TEST(MetacubeBroadcast, K0IsPlainHypercubeBroadcastTime) {
  const net::Metacube mc(0, 4);  // == Q_4
  sim::Machine m(mc);
  metacube_broadcast<int>(m, mc, 0, 1);
  EXPECT_EQ(m.counters().comm_cycles, 4u);
}

}  // namespace
}  // namespace dc::collectives
