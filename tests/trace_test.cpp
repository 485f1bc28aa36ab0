// Trace and metrics layer tests: deterministic export, balanced spans,
// record/replay/fault visibility, ring wrap accounting, and the metrics
// registry's arithmetic. The determinism suites run again under TSan in CI
// (trace emission shares one recorder across the machine's worker pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/dual_prefix.hpp"
#include "core/ft_dual_prefix.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/oblivious.hpp"
#include "sim/run_report.hpp"
#include "sim/trace.hpp"
#include "support/thread_pool.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"

namespace dc::sim {
namespace {

std::vector<u64> prefix_input(std::size_t n) {
  std::vector<u64> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = (i * 2654435761ull) % 97;
  return data;
}

/// One interpreted dual-prefix run on its own pool, traced into a fresh
/// recorder; returns the exported JSON. Interpreted so the result cannot
/// depend on what earlier tests left in the process ScheduleCache.
std::string traced_run_json(std::size_t workers) {
  dc::ThreadPool pool(workers);
  const net::DualCube d(3);
  TraceRecorder rec(pool.size() + 1);
  Machine m(d);
  m.set_thread_pool(&pool);
  m.set_parallel_grain(1);  // force dispatch onto the workers
  m.set_schedule_path(SchedulePath::kInterpreted);
  m.set_trace(&rec, "determinism-run");
  const auto data = prefix_input(d.node_count());
  (void)core::dual_prefix(m, d, core::Plus<u64>{}, data);
  return rec.json();
}

TEST(Trace, SameSeedSameWorkersByteIdenticalJson) {
  EXPECT_EQ(traced_run_json(3), traced_run_json(3));
}

/// Canonical multiset view of a trace: every event reduced to its
/// order-independent content and sorted.
using CanonicalEvent = std::tuple<std::string, char, std::uint32_t,
                                  std::uint64_t, std::uint64_t>;
std::vector<CanonicalEvent> canonical(const TraceRecorder& rec) {
  std::vector<CanonicalEvent> out;
  for (const TraceEvent& e : rec.merged())
    out.emplace_back(e.name, e.ph, e.track, e.arg_a, e.arg_b);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<CanonicalEvent> traced_run_canonical(std::size_t workers) {
  dc::ThreadPool pool(workers);
  const net::DualCube d(3);
  TraceRecorder rec(pool.size() + 1);
  Machine m(d);
  m.set_thread_pool(&pool);
  m.set_parallel_grain(1);
  m.set_schedule_path(SchedulePath::kInterpreted);
  m.set_trace(&rec, "determinism-run");
  const auto data = prefix_input(d.node_count());
  (void)core::dual_prefix(m, d, core::Plus<u64>{}, data);
  return canonical(rec);
}

TEST(Trace, DifferentWorkerCountIdenticalEventMultiset) {
  const auto one = traced_run_canonical(1);
  const auto four = traced_run_canonical(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  // Stronger property the current instrumentation guarantees (all events
  // are emitted from the driver thread): the export is byte-identical too.
  EXPECT_EQ(traced_run_json(1), traced_run_json(4));
}

TEST(Trace, SpansBalancedAndCyclesCounted) {
  const net::DualCube d(3);
  TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
  Machine m(d);
  m.set_schedule_path(SchedulePath::kInterpreted);
  m.set_trace(&rec, "balance-run");
  const auto data = prefix_input(d.node_count());
  (void)core::dual_prefix(m, d, core::Plus<u64>{}, data);

  std::map<std::string, std::int64_t> depth;
  std::size_t cycle_ends = 0;
  std::uint64_t last_ts = 0;
  bool first = true;
  for (const TraceEvent& e : rec.merged()) {
    if (!first) {
      EXPECT_GT(e.ts, last_ts);  // strictly monotone logical clock
    }
    first = false;
    last_ts = e.ts;
    if (e.ph == 'B') ++depth[e.name];
    if (e.ph == 'E') {
      --depth[e.name];
      EXPECT_GE(depth[e.name], 0) << e.name;
    }
    if (e.kind == TraceEventKind::kCycleEnd) ++cycle_ends;
  }
  for (const auto& [name, open] : depth) EXPECT_EQ(open, 0) << name;
  EXPECT_EQ(cycle_ends, m.counters().comm_cycles);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, RecordThenReplayTransitionsVisible) {
  const net::Hypercube q(4);
  TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  m.set_trace(&rec, "schedule-run");
  const auto run_once = [&] {
    ObliviousSection section(m, "trace_test_record_replay", {});
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto inbox = section.exchange<u64>(
          [&](net::NodeId u) { return q.neighbor(u, i); },
          [](net::NodeId u) { return u; });
    }
    section.commit();
  };
  run_once();  // miss -> record -> commit
  run_once();  // hit -> replay

  std::size_t record_spans = 0, replay_spans = 0, hits = 0, misses = 0,
              commits = 0, replay_cycles = 0;
  for (const TraceEvent& e : rec.merged()) {
    const std::string name = e.name;
    if (e.ph == 'B' && name == "record:trace_test_record_replay")
      ++record_spans;
    if (e.ph == 'B' && name == "replay:trace_test_record_replay")
      ++replay_spans;
    if (name == "schedule_cache_hit") ++hits;
    if (name == "schedule_cache_miss") ++misses;
    if (name == "schedule_commit") ++commits;
    if (e.kind == TraceEventKind::kCycleEnd &&
        name == "comm_cycle_replay_blocks")
      ++replay_cycles;
  }
  EXPECT_EQ(record_spans, 1u);
  EXPECT_EQ(replay_spans, 1u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(commits, 1u);
  EXPECT_EQ(replay_cycles, q.dimensions());
}

TEST(Trace, FaultDropAndDetourEventsVisible) {
  const net::DualCube d(2);
  const FaultPlan plan = FaultPlan{}.kill_node(net::NodeId{3});
  const auto faults = std::make_shared<FaultTimeline>(plan);

  // Degrade-policy drop: a message aimed at the dead node is eaten and
  // traced as a fault_drop instant carrying the sender.
  {
    TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
    Machine m(d);
    m.set_trace(&rec, "drop-run");
    m.attach_faults(faults, FaultPolicy::kDegrade);
    auto inbox = m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
      if (u != d.cross_neighbor(net::NodeId{3})) return std::nullopt;
      return Send<int>{net::NodeId{3}, 7};
    });
    std::size_t drops = 0, fault_cycles = 0;
    for (const TraceEvent& e : rec.merged()) {
      if (std::string(e.name) == "fault_drop") {
        ++drops;
        EXPECT_EQ(e.arg_a, d.cross_neighbor(net::NodeId{3}));
      }
      if (std::string(e.name) == "fault_cycle") ++fault_cycles;
    }
    EXPECT_EQ(drops, 1u);
    EXPECT_EQ(fault_cycles, 1u);
    EXPECT_EQ(m.counters().messages_lost, 1u);
  }

  // Fault-tolerant prefix under the same fault set: repairs travel detour
  // routes and each deviation is traced as a fault_detour instant.
  {
    TraceRecorder rec(dc::ThreadPool::shared().size() + 1);
    Machine m(d);
    m.set_trace(&rec, "detour-run");
    m.attach_faults(faults, FaultPolicy::kStrict);
    const auto data = prefix_input(d.node_count());
    FtReport rep;
    (void)core::ft_dual_prefix(m, d, core::Plus<u64>{}, data, plan,
                               /*inclusive=*/true, &rep);
    std::size_t detours = 0;
    for (const TraceEvent& e : rec.merged())
      if (std::string(e.name) == "fault_detour") ++detours;
    EXPECT_GT(rep.repaired, 0u);
    EXPECT_EQ(detours, rep.repaired);
  }
}

TEST(Trace, RingWrapKeepsMostRecentAndCountsDrops) {
  TraceRecorder rec(1, /*caller_capacity=*/8);
  const std::uint32_t track = rec.register_track("wrap");
  for (std::uint64_t i = 0; i < 20; ++i)
    rec.instant(track, 0, "compute_step", "i", i);
  EXPECT_EQ(rec.emitted(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().arg_a, 12u);  // oldest retained
  EXPECT_EQ(events.back().arg_a, 19u);   // newest
  EXPECT_NE(rec.json().find("\"dropped_events\":12"), std::string::npos);
}

TEST(Trace, FlightRecorderWrapKeepsNewestPerSlotMonotone) {
  // One caller ring (cap 8) and two worker rings (cap 4 each), all pushed
  // far past capacity: the dump must hold exactly the newest N events of
  // every slot, merged into one strictly monotone logical timeline.
  TraceRecorder rec(3, /*caller_capacity=*/8, /*worker_capacity=*/4);
  const std::uint32_t track = rec.register_track("flight");
  for (std::uint64_t i = 0; i < 30; ++i) {
    rec.instant(track, 0, "compute_step", "i", i);
    rec.instant(track, 1, "compute_step", "i", 100 + i);
    rec.instant(track, 2, "compute_step", "i", 200 + i);
  }
  EXPECT_EQ(rec.emitted(), 90u);
  EXPECT_EQ(rec.dropped(), 90u - (8u + 4u + 4u));

  const auto events = rec.merged();
  ASSERT_EQ(events.size(), 16u);
  std::map<std::uint32_t, std::vector<std::uint64_t>> per_slot;
  std::uint64_t last_ts = 0;
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) {
      EXPECT_GT(e.ts, last_ts);
    }
    first = false;
    last_ts = e.ts;
    per_slot[e.slot].push_back(e.arg_a);
  }
  const auto newest = [](std::uint64_t base, std::uint64_t cap) {
    std::vector<std::uint64_t> want;
    for (std::uint64_t i = 30 - cap; i < 30; ++i) want.push_back(base + i);
    return want;
  };
  EXPECT_EQ(per_slot[0], newest(0, 8));
  EXPECT_EQ(per_slot[1], newest(100, 4));
  EXPECT_EQ(per_slot[2], newest(200, 4));
}

TEST(Trace, FlightRecorderDumpCapsAtNewestEvents) {
  TraceRecorder rec(1, /*caller_capacity=*/1024);
  const std::uint32_t track = rec.register_track("flight");
  for (std::uint64_t i = 0; i < 800; ++i)
    rec.instant(track, 0, "compute_step", "i", i);

  RunReport r;
  fill_from_recorder(r, rec);
  ASSERT_EQ(r.flight.size(), kFlightDumpCap);
  EXPECT_EQ(r.flight.front().arg_a, 800 - kFlightDumpCap);
  EXPECT_EQ(r.flight.back().arg_a, 799u);
  EXPECT_EQ(r.flight_dropped, 0u);
  for (std::size_t i = 1; i < r.flight.size(); ++i)
    EXPECT_GT(r.flight[i].ts, r.flight[i - 1].ts);
}

TEST(Trace, MessagesPerCycleCompatAndScope) {
  const net::Hypercube q(2);
  Machine m(q);
  m.enable_trace();
  {
    TraceScope phase(m.trace(), m.trace_track(), "phase:test");
    m.comm_cycle<int>(
        [&](net::NodeId u) { return Send<int>{q.neighbor(u, 0), 0}; });
  }
  m.comm_cycle<int>([&](net::NodeId u) -> std::optional<Send<int>> {
    if (u != 0) return std::nullopt;
    return Send<int>{1, 0};
  });
  const auto counts = m.messages_per_cycle();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[1], 1u);

  bool opened = false, closed = false;
  for (const TraceEvent& e : m.trace()->merged()) {
    if (std::string(e.name) != "phase:test") continue;
    if (e.ph == 'B') opened = true;
    if (e.ph == 'E') closed = true;
  }
  EXPECT_TRUE(opened);
  EXPECT_TRUE(closed);
}

TEST(Trace, JsonEscapesTrackLabels) {
  TraceRecorder rec(1);
  rec.register_track("quote\"back\\slash");
  EXPECT_NE(rec.json().find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(Metrics, CounterHistogramAndReset) {
  auto& reg = MetricsRegistry::instance();
  auto& c = reg.counter("test.counter");
  c.reset();
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4u);

  auto& h = reg.histogram("test.hist", Histogram::pow2_bounds(3));
  h.reset();
  h.observe(1);
  h.observe(2);
  h.observe(100);  // overflow bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 103u);
  EXPECT_EQ(h.max(), 100u);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 5u);  // bounds 1,2,4,8 + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[4], 1u);

  // reset() zeroes values but keeps registered references valid.
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(&reg.histogram("test.hist", {}), &h);
}

TEST(Metrics, ArmedMachinePopulatesRegistryAndReport) {
  MetricsRegistry::instance().reset();
  MetricsRegistry::arm();
  const net::Hypercube q(3);
  Machine m(q);
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto inbox = m.comm_cycle<u64>(
        [&](net::NodeId u) { return Send<u64>{q.neighbor(u, i), u}; });
  }
  m.publish_metrics();
  MetricsRegistry::disarm();

  const auto snap = MetricsRegistry::instance().snapshot();
  const auto* hist = [&]() -> const MetricsRegistry::HistogramSnapshot* {
    for (const auto& h : snap.histograms)
      if (h.name == "sim.messages_per_cycle") return &h;
    return nullptr;
  }();
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->count, q.dimensions());
  EXPECT_EQ(hist->max, q.node_count());

  bool have_cycles = false;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "sim.comm_cycles") {
      have_cycles = true;
      EXPECT_EQ(v, static_cast<double>(q.dimensions()));
    }
  }
  EXPECT_TRUE(have_cycles);

  const std::string table = metrics_report();
  EXPECT_NE(table.find("sim.schedule_cache.hits"), std::string::npos);
  const std::string json = metrics_report(MetricsFormat::kJson);
  EXPECT_NE(json.find("\"sim.messages_per_cycle\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // single machine-line
}

TEST(Metrics, UnarmedMachineLeavesRegistryUntouched) {
  MetricsRegistry::disarm();
  MetricsRegistry::instance().reset();
  const net::Hypercube q(2);
  Machine m(q);
  auto inbox = m.comm_cycle<int>(
      [&](net::NodeId u) { return Send<int>{q.neighbor(u, 0), 1}; });
  m.publish_metrics();  // no-op while disarmed
  const auto snap = MetricsRegistry::instance().snapshot();
  EXPECT_TRUE(snap.gauges.empty());
  for (const auto& h : snap.histograms)
    if (h.name == "sim.messages_per_cycle") {
      EXPECT_EQ(h.count, 0u);
    }
}

}  // namespace
}  // namespace dc::sim
