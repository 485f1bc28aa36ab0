// Tests for the ring-pipelined broadcast.
#include <gtest/gtest.h>

#include "collectives/pipeline_broadcast.hpp"
#include "support/rng.hpp"

namespace dc::collectives {
namespace {

// gtest names each case after the raw bytes of its parameter, so the struct
// has no implicit padding: `pad` keeps the four bytes after `n` at zero and the
// test names the same from one build to the next.
struct PipeCase {
  unsigned n;
  unsigned pad = 0;
  std::size_t chunks;
  net::NodeId root;
};

class PipelineTest : public ::testing::TestWithParam<PipeCase> {};

TEST_P(PipelineTest, DeliversAllChunksInOrder) {
  const PipeCase& p = GetParam();
  const net::DualCube d(p.n);
  sim::Machine m(d);
  Rng rng(p.chunks);
  std::vector<u64> chunks(p.chunks);
  for (auto& c : chunks) c = rng();
  const auto out =
      ring_pipeline_broadcast(m, d, p.root % d.node_count(), chunks);
  for (net::NodeId u = 0; u < d.node_count(); ++u)
    ASSERT_EQ(out[u], chunks) << "node " << u;
  EXPECT_EQ(m.counters().comm_cycles, d.node_count() - 2 + p.chunks);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PipelineTest,
    ::testing::Values(PipeCase{2, 0, 1, 0}, PipeCase{2, 0, 5, 3},
                      PipeCase{3, 0, 1, 0}, PipeCase{3, 0, 10, 17},
                      PipeCase{3, 0, 100, 31}, PipeCase{4, 0, 7, 77}),
    [](const auto& param_info) {
      return "D" + std::to_string(param_info.param.n) + "_B" +
             std::to_string(param_info.param.chunks) + "_r" +
             std::to_string(param_info.param.root);
    });

TEST(Pipeline, BeatsBinomialForBulkMessages) {
  const net::DualCube d(3);
  std::vector<u64> chunks(200, 7);
  sim::Machine mp(d);
  ring_pipeline_broadcast(mp, d, 0, chunks);
  sim::Machine mb(d);
  repeated_binomial_broadcast(mb, d, 0, chunks);
  EXPECT_LT(mp.counters().comm_cycles, mb.counters().comm_cycles);
}

TEST(Pipeline, BinomialWinsForSingleChunk) {
  const net::DualCube d(3);
  const std::vector<u64> one{42};
  sim::Machine mp(d);
  ring_pipeline_broadcast(mp, d, 0, one);
  sim::Machine mb(d);
  repeated_binomial_broadcast(mb, d, 0, one);
  EXPECT_GT(mp.counters().comm_cycles, mb.counters().comm_cycles);
}

TEST(Pipeline, RejectsEmptyMessage) {
  const net::DualCube d(2);
  sim::Machine m(d);
  EXPECT_THROW(ring_pipeline_broadcast(m, d, 0, std::vector<u64>{}),
               CheckError);
}

}  // namespace
}  // namespace dc::collectives
