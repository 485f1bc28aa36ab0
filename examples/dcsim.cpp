// dcsim — a command-line driver over the whole library: pick a network
// size, an algorithm, a workload, and get verified results plus the model
// step counters. Intended as the "one binary to poke at everything".
//
//   ./dcsim --algo=prefix    --n=4 --op=plus
//   ./dcsim --algo=sort      --n=3 --dist=reverse
//   ./dcsim --algo=radix     --n=3 --bits=8
//   ./dcsim --algo=enum      --n=3
//   ./dcsim --algo=broadcast --n=4 --root=5
//   ./dcsim --algo=allreduce --n=4
//   ./dcsim --algo=route     --n=4 --pattern=random
//   ./dcsim --algo=prefix    --n=3 --faults=random:2,7
//   ./dcsim --algo=broadcast --n=3 --faults=nodes:3,17 --fault-policy=degrade
//   ./dcsim --algo=sort      --n=3 --faults=nodes:5
//   ./dcsim --algo=prefix    --n=4 --fault-timeline=link:0-1:down@2:up@4
//   ./dcsim --algo=sort      --n=4 --fault-timeline=node:3:down@9:up@30
//   ./dcsim --algo=prefix    --n=4 --trace=out.json --metrics
//   ./dcsim --algo=prefix    --n=12 --shards=8 --mem-budget=100000000
//
// --schedule=compiled|interpreted selects the communication path: compiled
// (default) records + caches each algorithm's oblivious schedule and runs a
// warm-up so the reported run replays it; interpreted plans and validates
// every cycle. Counters and results are identical either way.
//
// --schedule-cache=DIR (or DC_SCHEDULE_CACHE=DIR) persists compiled
// schedules to DIR as mmap-friendly files shared across processes: a
// process finding its schedule on disk skips record-and-validate entirely
// (the run summary's "schedule disk hits" row counts the loads). Corrupt
// or stale files are rejected by checksum + embedded key and silently
// fall back to recording.
//
// --trace=FILE.json records every comm cycle, oblivious-section
// record/replay span, schedule-cache event and fault drop/detour into
// FILE.json (Chrome-trace format — open in chrome://tracing or
// https://ui.perfetto.dev). The warm-up and measured machines share one
// timeline on separate tracks, so the record run and its replay are both
// visible. --metrics[=table|json] arms the process metrics registry and
// prints dc::sim::metrics_report() after the run.
//
// --faults=nodes:a,b,c | random:k[,seed] injects a static fault scenario
// and runs the fault-tolerant variant (prefix, broadcast and sort),
// printing a graceful-degradation report. --fault-policy=strict (default)
// attaches the plan to the machine so any unplanned touch of a dead node
// throws; degrade drops such messages and counts them instead. Strict mode
// rejects specs with n or more node faults up front (the n-connectivity
// guarantee covers only fewer than n).
//
// --fault-timeline=SPEC runs the self-healing driver over a *dynamic*
// fault timeline: '+'-separated timed events
//   node:ID:down@C[:up@C]   link:U-V:down@C[:up@C]   drop:PERMILLE@C1-C2
// (cycles are machine comm-cycle indices). The collective plans against
// the epoch live at its start; a mid-run epoch change aborts the phase in
// flight, pays a bounded backoff, re-plans on the new faulted view and
// retries from the last checkpoint (--retry-budget bounds total retries,
// default 8). --fault-policy picks the budget-exhaustion behavior: strict
// rethrows, degrade finishes one attempt dropping fault-touching
// messages. Supports --algo=prefix|broadcast|sort, and --shards
// (degrade only: per-shard machines filter the localized timeline while
// the host-side exchange is unaffected).
//
// --shards=K runs D_prefix through the cluster-sharded engine (K per-shard
// machines over the recursive D_(n-1) decomposition) with streaming input
// and output — no global data vector is ever materialized, and the result
// stream is verified on the fly. --mem-budget=BYTES caps resident memory:
// runs whose working set + result store exceed the budget spill result
// slices out of core, keeping peak resident linear in N/K; runs whose
// per-shard working set alone exceeds the budget go fully out of core,
// streaming t/s through a budget-sized window on every synchronous cycle
// (slower, but peak resident stays under the cap at any N — use more
// shards to bring the cycles back in core). The run reports the
// memory-model prediction next to the kernel-measured peak RSS.
//
// --profile attaches the cycle profiler to the measured machine(s):
// critical-path attribution per trace track, per-cycle receiver-band
// imbalance telemetry (sim.imbalance.* histograms under --metrics), and
// the top-5 hottest directed edges in the run summary. --report=FILE.json
// writes the structured run report (sim/run_report.hpp, schema v1):
// counters, profile, imbalance, fault/recovery section, schedule-cache
// stats and the flight-recorder tail. The flight recorder itself is
// always on — every run carries a small trace ring (crash-buffer sized
// unless --trace/--profile grows it), and a run that dies with
// SimError/FaultError still writes its report for post-mortem reading.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>

#include <sys/resource.h>

#include "collectives/broadcast.hpp"
#include "collectives/ft_broadcast.hpp"
#include "collectives/reduce.hpp"
#include "core/dual_prefix.hpp"
#include "core/ft_dual_prefix.hpp"
#include "core/ft_dual_sort.hpp"
#include "core/sharded_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/enumeration_sort.hpp"
#include "core/formulas.hpp"
#include "core/radix_sort.hpp"
#include "core/sequential.hpp"
#include "sim/fault_transport.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/profile.hpp"
#include "sim/recovery.hpp"
#include "sim/run_report.hpp"
#include "sim/schedule_store.hpp"
#include "sim/store_forward.hpp"
#include "sim/trace.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "topology/routing.hpp"

namespace {

using dc::u64;
using dc::net::NodeId;

dc::sim::SchedulePath g_schedule = dc::sim::SchedulePath::kCompiled;

// Shared by every machine the run constructs (warm-up and measured), so
// record and replay land on separate tracks of one timeline. Always
// non-null after flag parsing: without --trace/--profile it is the
// crash-buffer-sized flight recorder, with them a full-capacity recorder.
std::unique_ptr<dc::sim::TraceRecorder> g_trace;

// Non-null with --profile: per-cycle imbalance telemetry, critical-path
// attribution and hot-edge ranking for the measured run.
std::unique_ptr<dc::sim::CycleProfiler> g_profiler;

// The structured run report, filled incrementally by the run paths and
// serialized at exit (--report=FILE.json) or on SimError/FaultError.
dc::sim::RunReport g_report;

/// Applies the process-wide run configuration to a machine: the schedule
/// path, a trace track labelled `label`, and — for the measured machine
/// under --profile — the cycle profiler plus per-edge load accounting.
void setup_machine(dc::sim::Machine& m, const std::string& label) {
  m.set_schedule_path(g_schedule);
  if (g_trace) m.set_trace(g_trace.get(), label);
  if (g_profiler && label == "measured") {
    m.attach_profiler(g_profiler.get());
    m.enable_edge_load();
  }
}

/// One-table end-of-run summary: schedule-cache statistics plus this
/// machine's fault counters (degrade-policy runs used to scatter these
/// across prints). Also publishes the machine's gauges into the metrics
/// registry, so a --metrics report reflects the measured run.
void print_run_summary(const dc::sim::Machine& m) {
  const auto cache = dc::sim::ScheduleCache::instance().stats();
  const auto c = m.counters();
  dc::Table t("run summary");
  t.header({"metric", "value"});
  t.add("schedule cache entries", cache.entries);
  t.add("schedule cache bytes", cache.bytes);
  t.add("schedule cache hits", cache.hits);
  t.add("schedule cache misses", cache.misses);
  t.add("schedule cache evictions", cache.evictions);
  if (dc::sim::ScheduleCache::instance().has_store()) {
    t.add("schedule disk hits", cache.disk_hits);
    t.add("schedule disk misses", cache.disk_misses);
    t.add("schedule disk bytes mapped", cache.disk_bytes_mapped);
  }
  t.add("messages lost to faults", c.messages_lost);
  t.add("messages rerouted", c.messages_rerouted);
  t.add("fault-active cycles", c.fault_cycles);
  std::cout << t;
  if (m.edge_load_enabled()) {
    const std::vector<u64> loads = m.edge_load_merged();
    if (g_profiler) g_profiler->note_edge_loads(loads);
    const auto hot = dc::sim::top_k_hot_edges(
        m.topology().flat_adjacency(), loads, 5);
    dc::Table h("hottest directed edges");
    h.header({"edge", "messages"});
    for (const auto& e : hot)
      h.add(std::to_string(e.u) + " -> " + std::to_string(e.v), e.load);
    std::cout << h;
    g_report.hot_edges = hot;
  }
  m.publish_metrics();

  // Report assembly: this machine is the measured run, so its counters,
  // cache snapshot and fault observations are the report's.
  g_report.counters = c;
  g_report.cache = cache;
  g_report.reconciled = {"measured"};
  if (g_profiler) {
    g_report.has_imbalance = true;
    g_report.imbalance = g_profiler->summary();
  }
  g_report.fault.active = g_report.fault.active || m.has_faults();
  g_report.fault.epochs = m.fault_epochs_seen();
  g_report.fault.rejoins = m.fault_rejoins();
}

void print_schedule_path(const dc::sim::Machine& m) {
  if (m.replayed_cycles() > 0) {
    std::cout << "schedule path: compiled (replayed " << m.replayed_cycles()
              << " cycles)\n";
  } else if (m.schedule_path() == dc::sim::SchedulePath::kCompiled) {
    std::cout << "schedule path: compiled (recorded; cached for replay)\n";
  } else {
    std::cout << "schedule path: interpreted\n";
  }
}

void print_counters(const dc::sim::Counters& c) {
  dc::Table t("model step counters");
  t.header({"counter", "value"});
  t.add("communication cycles", c.comm_cycles);
  t.add("computation steps", c.comp_steps);
  t.add("messages delivered", c.messages);
  t.add("op applications", c.ops);
  if (c.messages_lost > 0) t.add("messages lost", c.messages_lost);
  if (c.messages_rerouted > 0) t.add("messages rerouted", c.messages_rerouted);
  if (c.fault_cycles > 0) t.add("fault-active cycles", c.fault_cycles);
  std::cout << t;
}

void print_fault_report(const dc::sim::FaultPlan& plan,
                        const dc::sim::FtReport& rep,
                        dc::sim::FaultPolicy policy) {
  dc::Table t("graceful degradation report");
  t.header({"metric", "value"});
  t.add("policy", policy == dc::sim::FaultPolicy::kStrict ? "strict"
                                                          : "degrade");
  t.add("node faults", plan.node_fault_count());
  t.add("link faults", plan.link_fault_count());
  t.add("healthy-schedule cycles", rep.base_cycles);
  t.add("repair cycles", rep.repair_cycles);
  t.add("messages repaired by detour", rep.repaired);
  t.add("extra hops beyond one link", rep.rerouted_hops);
  t.add("BFS fallback routes", rep.bfs_fallbacks);
  std::cout << t;
  const auto dead = plan.dead_nodes();
  std::cout << "dead nodes:";
  for (const auto u : dead) std::cout << ' ' << u;
  std::cout << "\n";
}

int run_prefix(unsigned n, const std::string& op_name, u64 seed) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  dc::Rng rng(seed);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng.below(1000);

  std::vector<u64> out;
  std::vector<u64> expected;
  const auto run_with = [&](const auto& op) {
    if (g_schedule == dc::sim::SchedulePath::kCompiled) {
      // Warm-up records and caches the schedule so the reported run replays.
      dc::sim::Machine warm(d);
      setup_machine(warm, "warm-up");
      (void)dc::core::dual_prefix(warm, d, op, data);
    }
    out = dc::core::dual_prefix(m, d, op, data);
    expected = dc::core::seq_inclusive_scan(op, data);
  };
  if (op_name == "plus") {
    run_with(dc::core::Plus<u64>{});
  } else if (op_name == "min") {
    run_with(dc::core::Min<u64>{});
  } else if (op_name == "max") {
    run_with(dc::core::Max<u64>{});
  } else if (op_name == "xor") {
    run_with(dc::core::Xor<u64>{});
  } else {
    std::cout << "unknown --op '" << op_name << "' (plus|min|max|xor)\n";
    return 2;
  }
  const bool ok = out == expected;
  std::cout << "D_prefix(" << op_name << ") on " << d.name() << ": "
            << (ok ? "correct" : "WRONG") << "; last prefix = " << out.back()
            << "\n";
  print_counters(m.counters());
  print_schedule_path(m);
  print_run_summary(m);
  std::cout << "Theorem 1 bounds: comm <= "
            << dc::core::formulas::dual_prefix_comm_paper(n) << ", comp <= "
            << dc::core::formulas::dual_prefix_comp(n) << "\n";
  return ok ? 0 : 1;
}

/// Kernel-measured peak resident set of this process, in bytes (Linux
/// reports ru_maxrss in kilobytes).
std::size_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

int run_sharded_prefix(unsigned n, const std::string& op_name, unsigned shards,
                       std::size_t budget, u64 seed,
                       const std::string& timeline_spec) {
  const dc::net::DualCube d(n);
  dc::sim::ShardEngine eng(d, shards, budget);
  for (unsigned k = 0; k < shards; ++k)
    eng.machine(k).set_schedule_path(g_schedule);
  if (g_trace) eng.set_trace(g_trace.get());
  // Shards run lock-stepped cycles sequentially under the host, so one
  // profiler observes every shard's cycles without racing.
  if (g_profiler) eng.attach_profiler(g_profiler.get());
  // Sharded runs take the timeline under kDegrade only (the host-side
  // cross-cluster exchange cannot retry a shard mid-cycle): the engine
  // localizes node events to their home shard, rejects cross-cluster link
  // faults, and applies drop windows everywhere with decorrelated seeds.
  // The run becomes a fault-injection demo — diverged stream values are
  // counted, not failed.
  const bool faulted = !timeline_spec.empty();
  if (faulted) {
    const auto tl = dc::sim::parse_fault_timeline(timeline_spec, d, seed);
    eng.attach_fault_timeline(tl, dc::sim::FaultPolicy::kDegrade);
  }

  // Streaming input: a stateless per-index generator, so no global data
  // vector ever exists — the only O(N) state is the result store, and with
  // a tight --mem-budget not even that stays resident.
  const auto data_of = [seed](u64 i) -> u64 {
    u64 x = i + seed * 0x9E3779B97F4A7C15ull;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x % 1000;
  };

  // Streaming verification: the sink receives ascending slices tiling
  // [0, N), so one running accumulator checks every prefix as it streams
  // past without materializing the expected vector.
  bool ok = true;
  u64 last = 0;
  std::size_t diverged = 0;
  const auto run_with = [&](const auto& op) {
    u64 acc = op.identity();
    u64 next_base = 0;
    dc::core::sharded_dual_prefix(
        eng, op, data_of,
        [&](u64 base, const u64* values, std::size_t count) {
          ok = ok && base == next_base;
          for (std::size_t t = 0; t < count; ++t) {
            acc = op.combine(acc, data_of(base + t));
            if (values[t] != acc) ++diverged;
          }
          next_base = base + count;
          if (count > 0) last = values[count - 1];
        });
    ok = ok && next_base == d.node_count();
    // Healthy runs must stream exactly; faulted degrade runs report the
    // divergence instead of failing (dropped messages lose prefix terms).
    ok = ok && (faulted || diverged == 0);
  };
  if (op_name == "plus") {
    run_with(dc::core::Plus<u64>{});
  } else if (op_name == "min") {
    run_with(dc::core::Min<u64>{});
  } else if (op_name == "max") {
    run_with(dc::core::Max<u64>{});
  } else if (op_name == "xor") {
    run_with(dc::core::Xor<u64>{});
  } else {
    std::cout << "unknown --op '" << op_name << "' (plus|min|max|xor)\n";
    return 2;
  }

  const auto& st = eng.stats();
  std::cout << "sharded D_prefix(" << op_name << ") on " << d.name() << " ("
            << d.node_count() << " nodes, " << shards << " shards): "
            << (ok ? "stream verified" : "WRONG") << "; last prefix = " << last
            << "\n";
  if (faulted) {
    std::cout << "faulted stream (degrade): " << diverged << " of "
              << d.node_count() << " values diverged from the healthy scan\n";
  }
  dc::Table t("sharded memory model");
  t.header({"metric", "value"});
  t.add("shards", shards);
  t.add("nodes per shard", eng.shard_nodes());
  t.add("memory budget bytes", budget);
  t.add("working bytes / shard", eng.working_bytes(sizeof(u64)));
  t.add("result store bytes", eng.store_bytes(sizeof(u64)));
  t.add("predicted resident bytes", eng.predicted_resident_bytes(sizeof(u64)));
  t.add("spilled", st.last_run_spilled ? "yes" : "no");
  t.add("out of core (streamed cycles)",
        st.last_run_out_of_core ? "yes" : "no");
  t.add("spill slices written", st.spill_count);
  t.add("spill bytes", st.spill_bytes);
  t.add("cross-edge exchange bytes", st.cross_edge_bytes);
  t.add("peak RSS bytes (process)", peak_rss_bytes());
  std::cout << t;
  print_counters(eng.counters());
  eng.publish_metrics();

  // Report assembly: executed cycles live on shard 0's track, the
  // virtualized cross/distribution booking is reported separately so
  // report-validate can reconcile track totals + virtual == counters.
  g_report.counters = eng.counters();
  g_report.has_virtual = true;
  g_report.virtual_counters = eng.virtual_counters();
  g_report.reconciled = {"shards/shard0"};
  g_report.cache = dc::sim::ScheduleCache::instance().stats();
  if (g_profiler) {
    g_report.has_imbalance = true;
    g_report.imbalance = g_profiler->summary();
  }
  g_report.fault.active = faulted;
  if (faulted) {
    u64 epochs = 0;
    u64 rejoins = 0;
    for (unsigned k = 0; k < shards; ++k) {
      epochs = std::max(epochs, eng.machine(k).fault_epochs_seen());
      rejoins += eng.machine(k).fault_rejoins();
    }
    g_report.fault.epochs = epochs;
    g_report.fault.rejoins = rejoins;
  }
  std::cout << "Theorem 1 bounds: comm <= "
            << dc::core::formulas::dual_prefix_comm_paper(n) << ", comp <= "
            << dc::core::formulas::dual_prefix_comp(n) << "\n";
  return ok ? 0 : 1;
}

int run_sort(unsigned n, dc::KeyDistribution dist, u64 seed) {
  const dc::net::RecursiveDualCube r(n);
  dc::sim::Machine m(r);
  setup_machine(m, "measured");
  auto keys = dc::generate_keys(dist, r.node_count(), seed);
  if (g_schedule == dc::sim::SchedulePath::kCompiled) {
    dc::sim::Machine warm(r);
    setup_machine(warm, "warm-up");
    auto warm_keys = keys;
    dc::core::dual_sort(warm, r, warm_keys);
  }
  dc::core::dual_sort(m, r, keys);
  const bool ok = std::is_sorted(keys.begin(), keys.end());
  std::cout << "D_sort on " << r.name() << " (" << dc::to_string(dist)
            << "): " << (ok ? "sorted" : "NOT SORTED") << "\n";
  print_counters(m.counters());
  print_schedule_path(m);
  print_run_summary(m);
  std::cout << "Theorem 2 exact: comm = "
            << dc::core::formulas::dual_sort_comm_exact(n) << ", comp = "
            << dc::core::formulas::dual_sort_comp_exact(n) << "\n";
  return ok ? 0 : 1;
}

int run_radix(unsigned n, unsigned bits, u64 seed) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  dc::Rng rng(seed);
  std::vector<u64> keys(d.node_count());
  // 64-bit keys take every value; pow2(64) would be an out-of-range shift.
  for (auto& k : keys)
    k = bits == 64 ? rng() : rng.below(dc::bits::pow2(bits));
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto stats = dc::core::radix_sort(m, d, keys, bits);
  const bool ok = keys == expected;
  std::cout << "radix sort (" << bits << "-bit keys) on " << d.name() << ": "
            << (ok ? "sorted" : "NOT SORTED") << " in " << stats.passes
            << " passes (" << stats.routing_cycles << " routing cycles)\n";
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_enum(unsigned n, u64 seed) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  auto keys = dc::generate_keys(dc::KeyDistribution::kUniform,
                                d.node_count(), seed);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto report = dc::core::enumeration_sort(m, d, keys);
  const bool ok = keys == expected;
  std::cout << "enumeration sort on " << d.name() << ": "
            << (ok ? "sorted" : "NOT SORTED") << "; placement drain "
            << report.cycles << " cycles\n";
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_broadcast(unsigned n, NodeId root) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  if (g_schedule == dc::sim::SchedulePath::kCompiled) {
    dc::sim::Machine warm(d);
    setup_machine(warm, "warm-up");
    (void)dc::collectives::dual_broadcast<u64>(warm, d, root, 42);
  }
  const auto out = dc::collectives::dual_broadcast<u64>(m, d, root, 42);
  const bool ok =
      std::all_of(out.begin(), out.end(), [](u64 v) { return v == 42; });
  std::cout << "broadcast from node " << root << " on " << d.name() << ": "
            << (ok ? "complete" : "INCOMPLETE") << "\n";
  print_counters(m.counters());
  print_schedule_path(m);
  print_run_summary(m);
  std::cout << "diameter: " << d.diameter() << "\n";
  return ok ? 0 : 1;
}

int run_allreduce(unsigned n, u64 seed) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  dc::Rng rng(seed);
  std::vector<u64> values(d.node_count());
  for (auto& v : values) v = rng.below(100);
  const u64 expected = std::accumulate(values.begin(), values.end(), u64{0});
  const dc::core::Plus<u64> op;
  if (g_schedule == dc::sim::SchedulePath::kCompiled) {
    dc::sim::Machine warm(d);
    setup_machine(warm, "warm-up");
    (void)dc::collectives::dual_allreduce(warm, d, op, values);
  }
  const auto out = dc::collectives::dual_allreduce(m, d, op, values);
  const bool ok = std::all_of(out.begin(), out.end(),
                              [&](u64 v) { return v == expected; });
  std::cout << "allreduce(+) on " << d.name() << ": "
            << (ok ? "agrees everywhere" : "DISAGREES") << "; total "
            << expected << "\n";
  print_counters(m.counters());
  print_schedule_path(m);
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_ft_prefix(unsigned n, const std::string& op_name, u64 seed,
                  const dc::sim::FaultPlan& plan,
                  dc::sim::FaultPolicy policy) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  m.attach_faults(std::make_shared<dc::sim::FaultPlan>(plan), policy);
  dc::Rng rng(seed);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng.below(1000);

  // Which prefix-order indices lost their input with the node that owned
  // them: those contribute the identity and report no output.
  std::vector<bool> dead_index(d.node_count(), false);
  for (const auto u : plan.dead_nodes())
    dead_index[dc::core::dual_prefix_index_of_node(d, u)] = true;

  std::vector<std::optional<u64>> out;
  std::vector<u64> expected;
  dc::sim::FtReport rep;
  const auto run_with = [&](const auto& op) {
    out = dc::core::ft_dual_prefix(m, d, op, data, plan,
                                   /*inclusive=*/true, &rep);
    u64 acc = op.identity();
    expected.resize(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!dead_index[i]) acc = op.combine(acc, data[i]);
      expected[i] = acc;
    }
  };
  if (op_name == "plus") {
    run_with(dc::core::Plus<u64>{});
  } else if (op_name == "min") {
    run_with(dc::core::Min<u64>{});
  } else if (op_name == "max") {
    run_with(dc::core::Max<u64>{});
  } else if (op_name == "xor") {
    run_with(dc::core::Xor<u64>{});
  } else {
    std::cout << "unknown --op '" << op_name << "' (plus|min|max|xor)\n";
    return 2;
  }
  bool ok = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (dead_index[i]) {
      ok = ok && !out[i].has_value();
    } else {
      ok = ok && out[i].has_value() && *out[i] == expected[i];
    }
  }
  std::cout << "fault-tolerant D_prefix(" << op_name << ") on " << d.name()
            << ": " << (ok ? "correct on every live node" : "WRONG") << "\n";
  print_fault_report(plan, rep, policy);
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_ft_broadcast(unsigned n, NodeId root, const dc::sim::FaultPlan& plan,
                     dc::sim::FaultPolicy policy) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  m.attach_faults(std::make_shared<dc::sim::FaultPlan>(plan), policy);
  dc::sim::FtReport rep;
  const auto out =
      dc::collectives::ft_dual_broadcast<u64>(m, d, root, 42, plan, &rep);
  bool ok = true;
  constexpr std::uint64_t kEver = ~std::uint64_t{0};
  for (NodeId u = 0; u < d.node_count(); ++u) {
    if (plan.node_dead(u, kEver)) {
      ok = ok && !out[u].has_value();
    } else {
      ok = ok && out[u].has_value() && *out[u] == 42;
    }
  }
  std::cout << "fault-tolerant broadcast from node " << root << " on "
            << d.name() << ": "
            << (ok ? "reached every live node" : "INCOMPLETE") << "\n";
  print_fault_report(plan, rep, policy);
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_ft_sort(unsigned n, dc::KeyDistribution dist, u64 seed,
                const dc::sim::FaultPlan& plan, dc::sim::FaultPolicy policy) {
  const dc::net::RecursiveDualCube r(n);
  dc::sim::Machine m(r);
  setup_machine(m, "measured");
  m.attach_faults(std::make_shared<dc::sim::FaultPlan>(plan), policy);
  const auto keys = dc::generate_keys(dist, r.node_count(), seed);
  dc::sim::FtReport rep;
  const auto out =
      dc::core::ft_dual_sort(m, r, keys, plan, /*descending=*/false, &rep);
  // Dead nodes' keys are lost with them; every surviving key ends up
  // sorted into the leading labels, the holes trail.
  constexpr std::uint64_t kEver = ~std::uint64_t{0};
  std::vector<u64> expected;
  expected.reserve(keys.size());
  for (NodeId u = 0; u < r.node_count(); ++u)
    if (!plan.node_dead(u, kEver)) expected.push_back(keys[u]);
  std::sort(expected.begin(), expected.end());
  bool ok = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < expected.size()) {
      ok = ok && out[i].has_value() && *out[i] == expected[i];
    } else {
      ok = ok && !out[i].has_value();
    }
  }
  std::cout << "fault-tolerant D_sort on " << r.name() << " ("
            << dc::to_string(dist) << "): "
            << (ok ? "survivor keys sorted" : "WRONG") << "; "
            << expected.size() << " of " << r.node_count()
            << " keys survive\n";
  print_fault_report(plan, rep, policy);
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_with_faults(const std::string& algo, unsigned n,
                    const std::string& spec, const std::string& policy_name,
                    const std::string& op, dc::KeyDistribution dist,
                    NodeId root, u64 seed) {
  dc::sim::FaultPolicy policy = dc::sim::FaultPolicy::kStrict;
  if (policy_name == "degrade") {
    policy = dc::sim::FaultPolicy::kDegrade;
  } else if (policy_name != "strict") {
    std::cout << "unknown --fault-policy '" << policy_name
              << "' (strict|degrade)\n";
    return 2;
  }
  if (algo != "prefix" && algo != "broadcast" && algo != "sort") {
    std::cout << "--faults supports only --algo=prefix|broadcast|sort (got '"
              << algo << "')\n";
    return 2;
  }
  // The sort runs on the recursive dual-cube; parse the spec against the
  // topology the algorithm will actually see so node-range errors name it.
  const dc::net::DualCube d(n);
  const dc::net::RecursiveDualCube r(n);
  const dc::net::Topology& topo =
      (algo == "sort") ? static_cast<const dc::net::Topology&>(r)
                       : static_cast<const dc::net::Topology&>(d);
  dc::sim::FaultPlan plan;
  try {
    plan = dc::sim::parse_fault_spec(spec, topo, seed);
  } catch (const dc::CheckError& e) {
    std::cout << "bad --faults spec: " << e.what() << "\n";
    return 2;
  }
  if (policy == dc::sim::FaultPolicy::kStrict &&
      plan.node_fault_count() >= n) {
    std::cout << "strict policy covers only fewer than n=" << n
              << " node faults (" << topo.name() << " is " << n
              << "-connected); got " << plan.node_fault_count()
              << ". Use --fault-policy=degrade to attempt the run anyway.\n";
    return 2;
  }
  constexpr std::uint64_t kEver = ~std::uint64_t{0};
  if (algo == "broadcast" && plan.node_dead(root, kEver)) {
    std::cout << "fault spec kills the broadcast root " << root
              << "; pick a live --root\n";
    return 2;
  }
  try {
    if (algo == "prefix") return run_ft_prefix(n, op, seed, plan, policy);
    if (algo == "sort") return run_ft_sort(n, dist, seed, plan, policy);
    return run_ft_broadcast(n, root, plan, policy);
  } catch (const dc::sim::FaultError& e) {
    std::cout << "fault-tolerant run failed: " << e.what() << "\n";
    g_report.status = "fault_error";
    g_report.error = e.what();
    return 1;
  }
}

/// One-table view of what the self-healing driver actually did, plus the
/// machine's timeline observations (epochs/rejoins) for the same run.
void print_recovery_report(const dc::sim::RecoveryDriver& drv,
                           const dc::sim::Machine& m) {
  const auto& rep = drv.report();
  dc::Table t("self-healing report");
  t.header({"metric", "value"});
  t.add("timeline epochs", drv.timeline().epoch_count());
  t.add("fault epochs observed", m.fault_epochs_seen());
  t.add("node rejoins observed", m.fault_rejoins());
  t.add("phases", rep.phases);
  t.add("attempts", rep.attempts);
  t.add("retries", rep.retries);
  t.add("replans", rep.replans);
  t.add("restarts", rep.restarts);
  t.add("backoff cycles paid", rep.backoff_cycles);
  t.add("degraded finish", rep.degraded ? "yes" : "no");
  t.add("messages repaired by detour", rep.transport.repaired);
  t.add("extra hops beyond one link", rep.transport.rerouted_hops);
  t.add("BFS fallback routes", rep.transport.bfs_fallbacks);
  std::cout << t;

  g_report.fault.active = true;
  g_report.fault.retries = rep.retries;
  g_report.fault.replans = rep.replans;
  g_report.fault.backoff_cycles = rep.backoff_cycles;
  g_report.fault.current_epoch =
      drv.timeline().epoch_of(m.counters().comm_cycles);
  g_report.fault.epoch_starts = drv.timeline().epoch_starts();
}

/// Rejects timelines whose peak simultaneous node-fault count breaks the
/// n-connectivity guarantee when the run has no degrade fallback.
bool timeline_within_bound(const dc::sim::FaultTimeline& tl, unsigned n,
                           const dc::sim::RetryPolicy& rp) {
  if (rp.degrade_on_exhaustion) return true;
  const std::size_t peak = tl.max_concurrent_node_faults();
  if (peak < n) return true;
  std::cout << "strict policy covers only fewer than n=" << n
            << " concurrent node faults; the timeline peaks at " << peak
            << ". Use --fault-policy=degrade to attempt the run anyway.\n";
  return false;
}

int run_resilient_prefix(unsigned n, const std::string& op_name, u64 seed,
                         const std::string& spec,
                         const dc::sim::RetryPolicy& rp) {
  const dc::net::DualCube d(n);
  const auto tl = std::make_shared<const dc::sim::FaultTimeline>(
      dc::sim::parse_fault_timeline(spec, d, seed));
  if (!timeline_within_bound(*tl, n, rp)) return 2;
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  dc::Rng rng(seed);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng.below(1000);

  int rc = 2;
  dc::sim::RecoveryDriver drv(m, tl, rp);
  const auto run_with = [&](const auto& op) {
    const auto out = dc::sim::resilient_dual_prefix(drv, d, op, data);
    // Self-consistent check: holes are the slots the final epoch's plan
    // masked out; every live slot must carry the scan over live inputs.
    bool ok = true;
    std::size_t holes = 0;
    u64 acc = op.identity();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (!out[i].has_value()) {
        ++holes;
        continue;
      }
      acc = op.combine(acc, data[i]);
      ok = ok && *out[i] == acc;
    }
    std::cout << "self-healing D_prefix(" << op_name << ") on " << d.name()
              << ": " << (ok ? "correct on every live slot" : "WRONG")
              << "; " << holes << " dead slots\n";
    rc = ok ? 0 : 1;
  };
  if (op_name == "plus") {
    run_with(dc::core::Plus<u64>{});
  } else if (op_name == "min") {
    run_with(dc::core::Min<u64>{});
  } else if (op_name == "max") {
    run_with(dc::core::Max<u64>{});
  } else if (op_name == "xor") {
    run_with(dc::core::Xor<u64>{});
  } else {
    std::cout << "unknown --op '" << op_name << "' (plus|min|max|xor)\n";
    return 2;
  }
  print_recovery_report(drv, m);
  print_counters(m.counters());
  print_run_summary(m);
  return rc;
}

int run_resilient_broadcast(unsigned n, NodeId root, u64 seed,
                            const std::string& spec,
                            const dc::sim::RetryPolicy& rp) {
  const dc::net::DualCube d(n);
  const auto tl = std::make_shared<const dc::sim::FaultTimeline>(
      dc::sim::parse_fault_timeline(spec, d, seed));
  if (!timeline_within_bound(*tl, n, rp)) return 2;
  for (const auto& ev : tl->node_events()) {
    if (ev.node == root) {
      std::cout << "fault timeline kills the broadcast root " << root
                << "; pick a live --root\n";
      return 2;
    }
  }
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  dc::sim::RecoveryDriver drv(m, tl, rp);
  const auto out = dc::sim::resilient_dual_broadcast(drv, d, root, u64{42});
  bool ok = true;
  std::size_t holes = 0;
  for (const auto& v : out) {
    if (v.has_value()) {
      ok = ok && *v == 42;
    } else {
      ++holes;
    }
  }
  std::cout << "self-healing broadcast from node " << root << " on "
            << d.name() << ": "
            << (ok ? "value on every live node" : "WRONG") << "; " << holes
            << " dead nodes\n";
  print_recovery_report(drv, m);
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_resilient_sort(unsigned n, dc::KeyDistribution dist, u64 seed,
                       const std::string& spec,
                       const dc::sim::RetryPolicy& rp) {
  const dc::net::RecursiveDualCube r(n);
  const auto tl = std::make_shared<const dc::sim::FaultTimeline>(
      dc::sim::parse_fault_timeline(spec, r, seed));
  if (!timeline_within_bound(*tl, n, rp)) return 2;
  dc::sim::Machine m(r);
  setup_machine(m, "measured");
  const auto keys = dc::generate_keys(dist, r.node_count(), seed);

  dc::sim::RecoveryDriver drv(m, tl, rp);
  const auto out = dc::core::resilient_dual_sort(drv, r, keys);
  // Survivor keys occupy the leading labels in sorted order; holes trail.
  // A mid-run death loses only that node's key, so the survivors must be
  // a sub-multiset of the input.
  std::size_t live = 0;
  while (live < out.size() && out[live].has_value()) ++live;
  bool ok = true;
  std::vector<u64> got;
  got.reserve(live);
  for (std::size_t i = 0; i < live; ++i) got.push_back(*out[i]);
  for (std::size_t i = live; i < out.size(); ++i)
    ok = ok && !out[i].has_value();
  ok = ok && std::is_sorted(got.begin(), got.end());
  auto pool = keys;
  std::sort(pool.begin(), pool.end());
  ok = ok && std::includes(pool.begin(), pool.end(), got.begin(), got.end());
  std::cout << "self-healing D_sort on " << r.name() << " ("
            << dc::to_string(dist) << "): "
            << (ok ? "survivor keys sorted" : "WRONG") << "; " << live
            << " of " << r.node_count() << " keys survive\n";
  print_recovery_report(drv, m);
  print_counters(m.counters());
  print_run_summary(m);
  return ok ? 0 : 1;
}

int run_with_timeline(const std::string& algo, unsigned n,
                      const std::string& spec, const std::string& policy_name,
                      const std::string& op, dc::KeyDistribution dist,
                      NodeId root, u64 seed, std::size_t retry_budget) {
  dc::sim::RetryPolicy rp;
  rp.retry_budget = retry_budget;
  if (policy_name == "strict") {
    rp.degrade_on_exhaustion = false;
  } else if (policy_name == "degrade") {
    rp.degrade_on_exhaustion = true;
  } else {
    std::cout << "unknown --fault-policy '" << policy_name
              << "' (strict|degrade)\n";
    return 2;
  }
  try {
    if (algo == "prefix") return run_resilient_prefix(n, op, seed, spec, rp);
    if (algo == "broadcast")
      return run_resilient_broadcast(n, root, seed, spec, rp);
    if (algo == "sort") return run_resilient_sort(n, dist, seed, spec, rp);
    std::cout << "--fault-timeline supports only --algo=prefix|broadcast|sort"
              << " (got '" << algo << "')\n";
    return 2;
  } catch (const dc::sim::FaultError& e) {
    std::cout << "self-healing run failed (retry budget " << retry_budget
              << " exhausted under " << policy_name << "): " << e.what()
              << "\n";
    g_report.status = "fault_error";
    g_report.error = e.what();
    return 1;
  } catch (const dc::CheckError& e) {
    std::cout << "bad --fault-timeline spec: " << e.what() << "\n";
    return 2;
  }
}

int run_route(unsigned n, const std::string& pattern, u64 seed) {
  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  setup_machine(m, "measured");
  const std::size_t N = d.node_count();
  std::vector<NodeId> dest(N);
  if (pattern == "random") {
    std::iota(dest.begin(), dest.end(), 0);
    dc::Rng rng(seed);
    for (std::size_t i = N; i-- > 1;) std::swap(dest[i], dest[rng.below(i + 1)]);
  } else if (pattern == "complement") {
    for (NodeId u = 0; u < N; ++u) dest[u] = N - 1 - u;
  } else if (pattern == "cross") {
    for (NodeId u = 0; u < N; ++u) dest[u] = d.cross_neighbor(u);
  } else {
    std::cout << "unknown --pattern '" << pattern
              << "' (random|complement|cross)\n";
    return 2;
  }
  const auto report = dc::sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
    return dc::net::route_dual_cube(d, s, v);
  });
  dc::Table t("routing report (" + pattern + ")");
  t.header({"metric", "value"});
  t.add("packets", report.packets);
  t.add("drain cycles", report.cycles);
  t.add("total hops", report.total_hops);
  t.add("avg latency", report.avg_latency);
  t.add("max queue", report.max_queue);
  std::cout << t;
  print_run_summary(m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dc::Cli cli(argc, argv);
  const std::string algo = cli.get_string("algo", "prefix");
  const std::int64_t n_arg = cli.get_int("n", 3);
  const u64 seed = static_cast<u64>(cli.get_int("seed", 1));
  const std::string op = cli.get_string("op", "plus");
  const std::string dist_name = cli.get_string("dist", "uniform");
  const std::int64_t bits_arg = cli.get_int("bits", 8);
  const std::int64_t root_arg = cli.get_int("root", 0);
  const std::string pattern = cli.get_string("pattern", "random");
  const std::string faults = cli.get_string("faults", "");
  const std::string fault_policy = cli.get_string("fault-policy", "strict");
  const std::string fault_timeline = cli.get_string("fault-timeline", "");
  const std::int64_t retry_budget_arg = cli.get_int("retry-budget", 8);
  const std::int64_t shards_arg = cli.get_int("shards", 0);
  const std::int64_t mem_budget_arg = cli.get_int("mem-budget", 0);
  const std::string trace_file = cli.get_string("trace", "");
  // Bare --profile parses as "true": attach the cycle profiler.
  const bool profile = !cli.get_string("profile", "").empty();
  const std::string report_file = cli.get_string("report", "");
  // Bare --metrics parses as "true"; table is the human default.
  const std::string metrics = cli.get_string("metrics", "");
  // The flag's default follows the process-wide DC_SCHEDULE override so
  // the environment variable keeps working when --schedule is not given.
  const char* env = std::getenv("DC_SCHEDULE");
  const std::string schedule = cli.get_string(
      "schedule", env && std::string_view(env) == "interpreted"
                      ? "interpreted"
                      : "compiled");
  // Persistent schedule store: --schedule-cache=DIR, defaulting to the
  // DC_SCHEDULE_CACHE environment variable (empty = no persistence).
  const char* cache_env = std::getenv("DC_SCHEDULE_CACHE");
  const std::string schedule_cache =
      cli.get_string("schedule-cache", cache_env ? cache_env : "");
  cli.finish();

  if (schedule == "compiled") {
    g_schedule = dc::sim::SchedulePath::kCompiled;
  } else if (schedule == "interpreted") {
    g_schedule = dc::sim::SchedulePath::kInterpreted;
  } else {
    std::cout << "unknown --schedule '" << schedule
              << "' (compiled|interpreted)\n";
    return 2;
  }

  // Range-check before narrowing: a wrapped --n, --root or --shards would
  // silently run a different network, node or shard count, a wrapped
  // --bits an undefined shift, and a negative budget no cap at all.
  if (n_arg < 1 || n_arg > 20) {
    std::cout << "--n must be a dual-cube order in 1..20 (got " << n_arg
              << ")\n";
    return 2;
  }
  const unsigned n = static_cast<unsigned>(n_arg);
  const std::int64_t node_count = std::int64_t{1} << (2 * n - 1);
  if (root_arg < 0 || root_arg >= node_count) {
    std::cout << "--root must be a node of D_" << n << " in 0.."
              << node_count - 1 << " (got " << root_arg << ")\n";
    return 2;
  }
  const NodeId root = static_cast<NodeId>(root_arg);
  if (bits_arg < 1 || bits_arg > 64) {
    std::cout << "--bits must be a key width in 1..64 (got " << bits_arg
              << ")\n";
    return 2;
  }
  const unsigned bits = static_cast<unsigned>(bits_arg);
  const std::int64_t cluster_count = std::int64_t{1} << n;
  if (shards_arg < 0 || shards_arg > cluster_count) {
    std::cout << "--shards must be a shard count in 0.." << cluster_count
              << " for D_" << n << " (got " << shards_arg << ")\n";
    return 2;
  }
  const unsigned shards = static_cast<unsigned>(shards_arg);
  if (mem_budget_arg < 0) {
    std::cout << "--mem-budget must be >= 0 bytes (got " << mem_budget_arg
              << ")\n";
    return 2;
  }
  const std::size_t mem_budget = static_cast<std::size_t>(mem_budget_arg);
  if (retry_budget_arg < 0) {
    std::cout << "--retry-budget must be >= 0 (got " << retry_budget_arg
              << ")\n";
    return 2;
  }
  const std::size_t retry_budget = static_cast<std::size_t>(retry_budget_arg);

  std::optional<dc::KeyDistribution> dist;
  std::string dist_names;
  for (const auto d : dc::all_key_distributions()) {
    if (dc::to_string(d) == dist_name) dist = d;
    dist_names += (dist_names.empty() ? "" : "|") + dc::to_string(d);
  }
  if (!dist) {
    std::cout << "unknown --dist '" << dist_name << "' (" << dist_names
              << ")\n";
    return 2;
  }

  if (!schedule_cache.empty()) {
    const auto store = dc::sim::attach_schedule_store(schedule_cache);
    if (!store->enabled()) {
      // Unusable directory: warn and run without persistence — the store
      // degrades every load/save to a miss/no-op by construction.
      std::cout << "warning: schedule cache directory '" << schedule_cache
                << "' is not usable; running without persistence\n";
    } else {
      std::cout << "schedule cache: " << store->directory() << "\n";
    }
  }

  dc::sim::MetricsFormat metrics_fmt = dc::sim::MetricsFormat::kTable;
  if (metrics == "json") {
    metrics_fmt = dc::sim::MetricsFormat::kJson;
  } else if (!metrics.empty() && metrics != "true" && metrics != "table") {
    std::cout << "unknown --metrics '" << metrics << "' (table|json)\n";
    return 2;
  }
  // Arm before any machine is constructed: machines (and the profiler)
  // resolve their metric targets at construction time.
  if (!metrics.empty()) dc::sim::MetricsRegistry::arm();
  // The flight recorder is always on: without --trace/--profile the rings
  // are small crash buffers (newest events only), with either flag they
  // grow to full trace capacity so nothing drops and the profile can
  // reconcile against the counters.
  const std::size_t trace_slots = dc::ThreadPool::shared().size() + 1;
  if (!trace_file.empty() || profile) {
    g_trace = std::make_unique<dc::sim::TraceRecorder>(trace_slots);
  } else {
    g_trace = std::make_unique<dc::sim::TraceRecorder>(trace_slots, 256, 64);
  }
  if (profile) g_profiler = std::make_unique<dc::sim::CycleProfiler>();

  const auto run = [&]() -> int {
    if (shards > 0) {
      if (algo != "prefix") {
        std::cout << "--shards supports only --algo=prefix (got '" << algo
                  << "')\n";
        return 2;
      }
      if (!faults.empty()) {
        std::cout << "--shards and --faults cannot be combined\n";
        return 2;
      }
      if (!fault_timeline.empty() && fault_policy != "degrade") {
        std::cout << "--shards with --fault-timeline requires "
                     "--fault-policy=degrade (per-shard machines cannot "
                     "retry the host-side exchange)\n";
        return 2;
      }
      try {
        return run_sharded_prefix(n, op, shards, mem_budget, seed,
                                  fault_timeline);
      } catch (const dc::CheckError& e) {
        std::cout << "sharded run rejected: " << e.what() << "\n";
        return 2;
      }
    }
    if (mem_budget > 0) {
      std::cout << "--mem-budget requires --shards\n";
      return 2;
    }
    if (!faults.empty() && !fault_timeline.empty()) {
      std::cout << "--faults and --fault-timeline cannot be combined\n";
      return 2;
    }
    if (!fault_timeline.empty())
      return run_with_timeline(algo, n, fault_timeline, fault_policy, op,
                               *dist, root, seed, retry_budget);
    if (!faults.empty())
      return run_with_faults(algo, n, faults, fault_policy, op, *dist, root,
                             seed);
    if (algo == "prefix") return run_prefix(n, op, seed);
    if (algo == "sort") return run_sort(n, *dist, seed);
    if (algo == "radix") return run_radix(n, bits, seed);
    if (algo == "enum") return run_enum(n, seed);
    if (algo == "broadcast") return run_broadcast(n, root);
    if (algo == "allreduce") return run_allreduce(n, seed);
    if (algo == "route") return run_route(n, pattern, seed);
    std::cout << "unknown --algo '" << algo
              << "' (prefix|sort|radix|enum|broadcast|allreduce|route)\n";
    return 2;
  };

  g_report.algo = algo;
  g_report.n = n;
  g_report.seed = seed;
  g_report.profiled = profile;
  const auto t0 = std::chrono::steady_clock::now();
  int rc = 2;
  // The flight recorder's reason to exist: a run that dies mid-collective
  // still writes its report, with the newest trace events of every worker
  // as the crash tail.
  try {
    rc = run();
  } catch (const dc::sim::FaultError& e) {
    g_report.status = "fault_error";
    g_report.error = e.what();
    std::cout << "fault error: " << e.what() << "\n";
    rc = 1;
  } catch (const dc::sim::SimError& e) {
    g_report.status = "sim_error";
    g_report.error = e.what();
    std::cout << "simulation error: " << e.what() << "\n";
    rc = 1;
  }
  g_report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    if (!out) {
      std::cout << "cannot open --trace file '" << trace_file << "'\n";
      return 2;
    }
    g_trace->write_json(out);
    std::cout << "trace: " << g_trace->emitted() << " events ("
              << g_trace->dropped() << " dropped) -> " << trace_file
              << " (open in https://ui.perfetto.dev)\n";
  }
  dc::sim::fill_from_recorder(g_report, *g_trace);
  if (!report_file.empty()) {
    std::ofstream out(report_file);
    if (!out) {
      std::cout << "cannot open --report file '" << report_file << "'\n";
      return 2;
    }
    dc::sim::write_report_json(out, g_report);
    std::cout << "run report: " << report_file << " (schema v"
              << dc::sim::kReportSchemaVersion << ", "
              << g_report.flight.size() << " flight-recorder events)\n";
  } else if (g_report.status != "ok") {
    std::cout << "flight recorder: " << g_report.flight.size()
              << " events retained; re-run with --report=FILE.json for the "
                 "full crash report\n";
  }
  if (!metrics.empty()) std::cout << dc::sim::metrics_report(metrics_fmt);
  return rc;
}
