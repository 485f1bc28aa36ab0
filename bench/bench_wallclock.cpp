// Wall-clock microbenchmarks of the simulator (google-benchmark).
//
// These measure the *simulator's* throughput, not any physical machine —
// useful for tracking regressions in this codebase and for sizing
// experiments, and explicitly not comparable to the paper (which reports
// model step counts only; see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iomanip>
#include <numeric>
#include <string>
#include <vector>

#include "collectives/broadcast.hpp"
#include "sim/schedule_store.hpp"
#include "core/block_prefix.hpp"
#include "core/block_sort.hpp"
#include "core/cube_bitonic_sort.hpp"
#include "core/cube_prefix.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/sharded_prefix.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/hypercube.hpp"

namespace {

using dc::u64;

void BM_DualPrefix(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng();
  for (auto _ : state) {
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, plus, data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_DualPrefix)->DenseRange(2, 8, 2)->Unit(benchmark::kMicrosecond);

// Same run with dcsim's always-on crash-buffer flight recorder attached
// (small per-slot rings, no --trace/--profile). check_bench_json.py gates
// this median at <= 1.02x the bare BM_DualPrefix median: the flight
// recorder must stay cheap enough to leave on for every run.
void BM_DualPrefixFlightRecorder(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng();
  // One process-lifetime recorder, as in dcsim: the rings wrap freely and
  // only the steady-state per-event cost is on the clock.
  dc::sim::TraceRecorder rec(dc::ThreadPool::shared().size() + 1,
                             /*caller_capacity=*/256, /*worker_capacity=*/64);
  for (auto _ : state) {
    dc::sim::Machine m(d);
    m.set_trace(&rec, "measured");
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, plus, data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_DualPrefixFlightRecorder)
    ->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMicrosecond);

// The same op over a monoid no vector kernel covers: a replayed Mat2
// prefix runs every cluster pass through the reference tile
// (cube_prefix_butterfly), so this row shows what the tiling alone is
// worth and that generic monoids do not pay for the u64 kernel.
void BM_DualPrefixMat2(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Mat2 mat;
  dc::Rng rng(1);
  std::vector<dc::core::Mat2::value_type> data(d.node_count());
  for (auto& x : data) x = {rng(), rng(), rng(), rng()};
  for (auto _ : state) {
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, mat, data));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_DualPrefixMat2)->Arg(4)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_CubePrefix(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const dc::net::Hypercube q(d);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(q.node_count());
  for (auto& x : data) x = rng();
  for (auto _ : state) {
    dc::sim::Machine m(q);
    benchmark::DoNotOptimize(dc::core::cube_prefix(m, q, plus, data, true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.node_count()));
}
BENCHMARK(BM_CubePrefix)->DenseRange(3, 15, 4)->Unit(benchmark::kMicrosecond);

void BM_DualSort(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::RecursiveDualCube r(n);
  const auto input =
      dc::generate_keys(dc::KeyDistribution::kUniform, r.node_count(), 3);
  for (auto _ : state) {
    auto keys = input;
    dc::sim::Machine m(r);
    dc::core::dual_sort(m, r, keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r.node_count()));
}
BENCHMARK(BM_DualSort)->DenseRange(2, 7, 1)->Unit(benchmark::kMicrosecond);

void BM_CubeBitonicSort(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const dc::net::Hypercube q(d);
  const auto input =
      dc::generate_keys(dc::KeyDistribution::kUniform, q.node_count(), 3);
  for (auto _ : state) {
    auto keys = input;
    dc::sim::Machine m(q);
    dc::core::cube_bitonic_sort(m, q, keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.node_count()));
}
BENCHMARK(BM_CubeBitonicSort)->DenseRange(3, 9, 2)->Unit(benchmark::kMicrosecond);

// Block sort on RD_3 at width m. Each run sorts the next of several
// distinct key sets drawn up front (a pool of 2^17 keys, at least two
// sets), so that no branch predictor learns one run's merges.
void BM_BlockSort(benchmark::State& state) {
  const unsigned n = 3;
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const dc::net::RecursiveDualCube r(n);
  const std::size_t size = r.node_count() * block;
  const std::size_t sets =
      std::max<std::size_t>(2, (std::size_t{1} << 17) / size);
  const auto pool =
      dc::generate_keys(dc::KeyDistribution::kUniform, sets * size, 3);
  std::vector<u64> keys(size);
  std::size_t set = 0;
  for (auto _ : state) {
    const auto first = pool.begin() + static_cast<std::ptrdiff_t>(set * size);
    keys.assign(first, first + static_cast<std::ptrdiff_t>(size));
    dc::sim::Machine m(r);
    dc::core::block_sort(m, r, keys, block);
    benchmark::DoNotOptimize(keys.data());
    set = (set + 1) % sets;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BlockSort)->RangeMultiplier(8)->Range(1, 512)->Unit(benchmark::kMicrosecond);

void BM_BlockPrefix(benchmark::State& state) {
  const unsigned n = 3;
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(d.node_count() * block);
  for (auto& x : data) x = rng();
  for (auto _ : state) {
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::core::block_prefix(m, d, plus, data, block));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_BlockPrefix)->RangeMultiplier(8)->Range(1, 512)->Unit(benchmark::kMicrosecond);

// Raw merge-split kernel throughput (no simulator): distinct pairs of
// sorted width-m key blocks, cycled through so that no branch predictor
// learns a merge, alternating keep-min / keep-max so both directions are
// measured. The pairs fill a fixed pool of 2^17 keys (1 MiB of u64): 8,192
// pairs at width 8, 128 at width 512. Uniform random blocks interleave, so
// the disjoint fast path stays cold and the merge itself is what's timed.
std::vector<u64> sorted_pair_pool(std::size_t width) {
  const std::size_t pairs = (std::size_t{1} << 16) / width;
  std::vector<u64> blocks =
      dc::generate_keys(dc::KeyDistribution::kUniform, 2 * pairs * width, 5);
  for (auto it = blocks.begin(); it != blocks.end();
       it += static_cast<std::ptrdiff_t>(width)) {
    std::sort(it, it + static_cast<std::ptrdiff_t>(width));
  }
  return blocks;
}

// One side of a pair: the per-node form that a recording or interpreted
// block sort runs, the scalar select chains for every key. A replayed
// block sort merges both sides of a pair in place instead:
// BM_MergeSplitPair.
void BM_MergeSplit(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const std::size_t pairs = (std::size_t{1} << 16) / width;
  const std::vector<u64> blocks = sorted_pair_pool(width);
  std::vector<u64> out(width);
  std::size_t pair = 0;
  bool keep_min = true;
  for (auto _ : state) {
    const u64* a = blocks.data() + 2 * pair * width;
    dc::core::detail::merge_split(a, a + width, width, keep_min, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    keep_min = !keep_min;
    pair = (pair + 1) % pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width));
}
BENCHMARK(BM_MergeSplit)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kNanosecond);

// The in-place pair form that a replayed block sort runs on each pair of
// partners (core::detail::merge_split_pair): with 8-byte keys on a vector
// tier, the vector pair kernel; else both per-node merges into a scratch.
// It overwrites its pair, so each iteration first restores that pair from
// a pristine copy of BM_MergeSplit's 2^17-key pool, cycling through the
// distinct pairs and alternating keep-min / keep-max as BM_MergeSplit
// does. BM_MergeSplitPairRestore times the restore alone, so the pair
// itself costs the difference of the two rows. Items are the 2m keys of a
// pair.
void merge_split_pair_bench(benchmark::State& state, bool merge) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const std::size_t pairs = (std::size_t{1} << 16) / width;
  const std::vector<u64> pristine = sorted_pair_pool(width);
  std::vector<u64> work = pristine;
  std::vector<u64> scratch;
  std::size_t pair = 0;
  bool keep_min = true;
  for (auto _ : state) {
    u64* const lo = work.data() + 2 * pair * width;
    std::copy_n(pristine.data() + 2 * pair * width, 2 * width, lo);
    if (merge) {
      dc::core::detail::merge_split_pair(lo, lo + width, width, keep_min,
                                         scratch);
    }
    benchmark::DoNotOptimize(lo);
    benchmark::ClobberMemory();
    keep_min = !keep_min;
    pair = (pair + 1) % pairs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * width));
}

void BM_MergeSplitPair(benchmark::State& state) {
  merge_split_pair_bench(state, true);
}
BENCHMARK(BM_MergeSplitPair)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kNanosecond);

void BM_MergeSplitPairRestore(benchmark::State& state) {
  merge_split_pair_bench(state, false);
}
BENCHMARK(BM_MergeSplitPairRestore)
    ->RangeMultiplier(8)
    ->Range(8, 512)
    ->Unit(benchmark::kNanosecond);

// Steady-state block replay gather in isolation: a width-m all-exchange
// schedule replayed from a node-major plane source (the
// comm_cycle_scheduled_blocks PlaneSrc hot path). Hypercube dimension
// exchanges compile to XOR form, so every width replays as block copies
// of aligned runs (dimension 0 at width 1 computes each sender inline);
// the masked vector gather serves only dense cycles, which this bench
// does not run.
void BM_BlockGather(benchmark::State& state) {
  const unsigned d = 9;
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const dc::net::Hypercube q(d);
  dc::sim::Machine m(q);
  m.set_schedule_path(dc::sim::SchedulePath::kCompiled);
  dc::sim::ObliviousSection sec(m, "bench_block_gather", {d, width});
  std::vector<u64> plane(q.node_count() * width);
  std::iota(plane.begin(), plane.end(), 0);
  if (!sec.replaying()) {
    for (unsigned j = 0; j < d; ++j) {
      auto inbox = sec.exchange_blocks<u64>(
          width, [&](dc::net::NodeId u) { return q.neighbor(u, j); },
          dc::sim::PlaneSrc<u64>{plane.data(), width});
      benchmark::DoNotOptimize(inbox.has(0));
    }
    sec.commit();
  }
  const auto sched = dc::sim::ScheduleCache::instance().find(sec.key());
  unsigned i = 0;
  for (auto _ : state) {
    auto inbox = m.comm_cycle_scheduled_blocks<u64>(
        sched->cycle(i), width, dc::sim::PlaneSrc<u64>{plane.data(), width});
    benchmark::DoNotOptimize(inbox.has(0));
    i = (i + 1 == d) ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.node_count() * width));
}
BENCHMARK(BM_BlockGather)
    ->RangeMultiplier(8)
    ->Range(1, 64)
    ->Unit(benchmark::kMicrosecond);

void BM_DualBroadcast(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  for (auto _ : state) {
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::collectives::dual_broadcast<u64>(m, d, 0, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_DualBroadcast)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

// Cluster-sharded D_prefix (core/sharded_prefix.hpp): args are
// {n, shards, capped}. One engine is reused across iterations, so
// steady-state runs replay the pooled planes and scratch with zero
// allocations; input comes from a stateless generator and output is
// consumed in place, so the benchmark measures the engine, not vector
// setup. items/sec counts finished nodes — the nodes/sec-vs-shard-count
// table BENCH_sim.json records.
//
// capped=1 rows all share one fixed memory budget, the K=4 working set
// (8N bytes — independent of K), so the row family answers "at this
// memory cap, what does shard count buy?": shards whose working set fits
// the cap run their cycles in core, while coarser shardings must stream
// s and the compact Cube_prefix totals through the spill file on every
// synchronous cycle (the cycle-synchrony contract, sim/shard.hpp), less
// the one window each cycle keeps resident. That out-of-core streaming
// is what K>=4 buys back — the source of the K=4 vs K=1 speedup on a
// single core.
void BM_ShardedDualPrefix(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const unsigned shards = static_cast<unsigned>(state.range(1));
  const dc::net::DualCube d(n);
  const std::size_t budget =
      state.range(2) != 0
          ? (static_cast<std::size_t>(d.node_count()) / 4) *
                (3 * sizeof(u64) + 8)
          : 0;
  dc::sim::ShardEngine eng(d, shards, budget);
  const dc::core::Plus<u64> plus;
  const auto data_of = [](u64 i) -> u64 {
    return (i * 0x9E3779B97F4A7C15ull) >> 32;
  };
  u64 digest = 0;
  for (auto _ : state) {
    dc::core::sharded_dual_prefix(
        eng, plus, data_of,
        [&](u64, const u64* values, std::size_t count) {
          digest ^= values[count - 1];
        });
    benchmark::DoNotOptimize(digest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
// CI runs the small sizes; the mega rows (8.4M / 33.5M nodes — the ISSUE's
// >= 10M-node scale) only register under DC_BENCH_MEGA=1 so the smoke job
// stays fast.
void ShardedDualPrefixArgs(benchmark::internal::Benchmark* b) {
  for (long k : {1, 2, 4}) b->Args({8, k, 0});
  const char* mega = std::getenv("DC_BENCH_MEGA");
  if (mega && *mega == '1') {
    for (long k : {1, 2, 4, 8}) b->Args({12, k, 1});
    for (long k : {1, 2, 4, 8}) b->Args({13, k, 1});
  }
}
BENCHMARK(BM_ShardedDualPrefix)
    ->Apply(ShardedDualPrefixArgs)
    ->Unit(benchmark::kMillisecond);

// Steady-state communication cycles in isolation: one Machine reused across
// iterations, so after the first cycle every inbox comes from the arena pool
// and the cycle performs zero heap allocations. Each iteration exchanges
// along a rotating hypercube dimension (every node sends, every node
// receives); items/sec counts delivered messages.
void BM_CommCycle(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const dc::net::Hypercube q(d);
  dc::sim::Machine m(q);
  unsigned i = 0;
  for (auto _ : state) {
    auto inbox = m.comm_cycle<u64>([&](dc::net::NodeId u) {
      return dc::sim::Send<u64>{q.neighbor(u, i), static_cast<u64>(u)};
    });
    benchmark::DoNotOptimize(inbox[0]);
    i = (i + 1 == d) ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.node_count()));
}
BENCHMARK(BM_CommCycle)->DenseRange(7, 15, 4)->Unit(benchmark::kMicrosecond);

// The compiled counterpart of BM_CommCycle: the same rotating-dimension
// exchange, but replayed as width-1 blocks through
// Machine::comm_cycle_scheduled_blocks with a callback source, from a
// schedule recorded once before the timing loop. The gap between the two
// benchmarks is the per-cycle cost of planning + validation + claiming.
void BM_CommCycleScheduled(benchmark::State& state) {
  const unsigned d = static_cast<unsigned>(state.range(0));
  const dc::net::Hypercube q(d);
  dc::sim::Machine m(q);
  m.set_schedule_path(dc::sim::SchedulePath::kCompiled);
  dc::sim::ObliviousSection sec(m, "bench_comm_cycle", {d});
  if (!sec.replaying()) {
    for (unsigned j = 0; j < d; ++j) {
      auto inbox = sec.exchange<u64>(
          [&](dc::net::NodeId u) { return q.neighbor(u, j); },
          [](dc::net::NodeId u) { return static_cast<u64>(u); });
      benchmark::DoNotOptimize(inbox.data());
    }
    sec.commit();
  }
  const auto sched = dc::sim::ScheduleCache::instance().find(sec.key());
  unsigned i = 0;
  for (auto _ : state) {
    auto inbox = m.comm_cycle_scheduled_blocks<u64>(
        sched->cycle(i), 1,
        [](dc::net::NodeId u, u64* dst) { *dst = static_cast<u64>(u); });
    benchmark::DoNotOptimize(inbox.data());
    i = (i + 1 == d) ? 0 : i + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(q.node_count()));
}
BENCHMARK(BM_CommCycleScheduled)
    ->DenseRange(7, 15, 4)
    ->Unit(benchmark::kMicrosecond);

// Cold vs warm start of the compiled D_n prefix. Cold: every iteration
// starts from an empty ScheduleCache with no persistent store, so the run
// pays the full record-and-validate pass before it can replay — the
// first-process latency this repo had before the schedule store. Warm: a
// store directory is primed once, and every iteration drops in-process
// residency but keeps the store attached, so the section faults its
// schedule in from the mmapped file and goes straight to replay. The
// BM_WarmStart/<n>_median / BM_ColdStart/<n>_median ratio is gated at
// <= 0.5 by tools/check_bench_json.py on trajectory files.
void BM_ColdStart(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng();
  auto& cache = dc::sim::ScheduleCache::instance();
  cache.attach_store(nullptr);
  for (auto _ : state) {
    cache.clear();
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, plus, data));
  }
  cache.clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_ColdStart)
    ->Arg(8)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

void BM_WarmStart(benchmark::State& state) {
  const unsigned n = static_cast<unsigned>(state.range(0));
  const dc::net::DualCube d(n);
  const dc::core::Plus<u64> plus;
  dc::Rng rng(1);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng();
  auto& cache = dc::sim::ScheduleCache::instance();
  char dir[] = "/tmp/dcsched_bench_XXXXXX";
  if (!::mkdtemp(dir)) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  dc::sim::attach_schedule_store(dir);
  cache.clear();
  {
    dc::sim::Machine m(d);  // prime: record once, write through to disk
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, plus, data));
  }
  for (auto _ : state) {
    cache.clear();  // drop residency; the store stays attached
    dc::sim::Machine m(d);
    benchmark::DoNotOptimize(dc::core::dual_prefix(m, d, plus, data));
  }
  cache.attach_store(nullptr);
  cache.clear();
  std::system((std::string("rm -rf ") + dir).c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.node_count()));
}
BENCHMARK(BM_WarmStart)
    ->Arg(8)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

// Chunked parallel-loop dispatch: per-index accumulate into a flat array.
// Ranges at or below the inline threshold measure the pure loop; larger
// ranges add the ticket-dispatch cost whenever the pool has more than one
// worker (set DC_THREADS to control this).
void BM_ParallelFor(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<u64> data(n, 0);
  for (auto _ : state) {
    dc::parallel_for_chunked(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) data[i] += i;
    });
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ParallelFor)
    ->RangeMultiplier(16)
    ->Range(1 << 10, 1 << 22)
    ->Unit(benchmark::kMicrosecond);

// Writes every finished run (including repetition aggregates such as
// "_median") to a machine-readable JSON array: one object per run with
// "name", "ns_per_op" and "items_per_sec". A percentage aggregate ("_cv")
// is no time, so it gets no row; "_stddev" carries the spread. The
// destination defaults to BENCH_sim.json in the working directory;
// override with DC_BENCH_JSON.
// Doubles as the display reporter (it forwards to a ConsoleReporter) so it
// can run without the --benchmark_out flag the file-reporter slot requires.
class JsonSummaryReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonSummaryReporter(std::string path) : path_(std::move(path)) {}

  bool ReportContext(const Context& context) override {
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_.ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate &&
          run.aggregate_unit == benchmark::kPercentage)
        continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      Entry e;
      e.name = run.benchmark_name();
      e.ns_per_op = run.real_accumulated_time / iters * 1e9;
      const auto it = run.counters.find("items_per_second");
      e.items_per_sec =
          it != run.counters.end() ? static_cast<double>(it->second) : 0.0;
      entries_.push_back(std::move(e));
    }
  }

  void Finalize() override {
    console_.Finalize();
    std::ofstream out(path_);
    if (!out) return;
    out << std::fixed << std::setprecision(2) << "[\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "  {\"name\": \"" << e.name << "\", \"ns_per_op\": " << e.ns_per_op
          << ", \"items_per_sec\": " << e.items_per_sec << "}"
          << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_sec = 0.0;
  };
  benchmark::ConsoleReporter console_;
  std::string path_;
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::cout << "DC_SIMD dispatch: "
            << dc::sim::simd::isa_name(dc::sim::simd::active_isa()) << "\n";
  const char* path = std::getenv("DC_BENCH_JSON");
  JsonSummaryReporter json(path ? path : "BENCH_sim.json");
  benchmark::RunSpecifiedBenchmarks(&json);
  benchmark::Shutdown();
  return 0;
}
