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
// printing a graceful-degradation report. The plan attaches to the
// machine as a timeline whose faults are down from cycle 0, forever.
// --fault-policy=strict (default) makes any unplanned touch of a dead node
// throw; degrade drops such messages and counts them instead. Strict mode
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
//
// dcsim is table-driven. kAlgos has one row per --algo naming its
// topology (D_n, or RD_n for the sort), whether it is oblivious (compiled-
// path warm-up, schedule-path line) and whether it prints the model step
// counters, plus up to three self-checking functions — healthy, ft_*
// (--faults) and resilient_* (--fault-timeline) — that print a verdict and
// return pass or fail. One wrapper per mode owns the machine, the fault
// parsing and the report tables, and both fault modes check the
// n-connectivity and live-root rules through one helper on the run's
// timeline, so adding an algorithm is one row. Choice flags are checked
// up front.
#include <algorithm>
#include <chrono>
#include <cstdint>
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
#include "support/bits.hpp"
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

/// Report assembly: `m` is the measured run, so its counters, cache
/// snapshot and fault observations are the report's. A run that fails
/// calls this before its machine unwinds.
void note_measured_run(const dc::sim::Machine& m) {
  g_report.counters = m.counters();
  g_report.cache = dc::sim::ScheduleCache::instance().stats();
  g_report.reconciled = {"measured"};
  if (g_profiler) {
    g_report.has_imbalance = true;
    g_report.imbalance = g_profiler->summary();
  }
  g_report.fault.active = g_report.fault.active || m.has_faults();
  g_report.fault.epochs = m.fault_epochs_seen();
  g_report.fault.rejoins = m.fault_rejoins();
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
  note_measured_run(m);
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

/// The run report's record of what the self-healing driver did.
void note_recovery(const dc::sim::RecoveryDriver& drv,
                   const dc::sim::Machine& m) {
  const auto& rep = drv.report();
  g_report.fault.active = true;
  g_report.fault.retries = rep.retries;
  g_report.fault.replans = rep.replans;
  g_report.fault.backoff_cycles = rep.backoff_cycles;
  g_report.fault.current_epoch =
      drv.timeline().epoch_of(m.counters().comm_cycles);
  g_report.fault.epoch_starts = drv.timeline().epoch_starts();
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
  note_recovery(drv, m);
}

/// A refusal: prints its one line and records it in the run report
/// (status "rejected", the line as the error). Returns dcsim's refusal
/// exit code.
int reject(const std::string& line) {
  std::cout << line << "\n";
  g_report.status = "rejected";
  g_report.error = line;
  return 2;
}

/// Range check before narrowing: rejects with "--<rule> (got v)" and
/// returns false when v lies outside lo..hi.
bool check_range(std::int64_t v, std::int64_t lo, std::int64_t hi,
                 const std::string& rule) {
  if (v >= lo && v <= hi) return true;
  reject("--" + rule + " (got " + std::to_string(v) + ")");
  return false;
}

/// Index of `value` among a choice flag's `names`; rejects with
/// "unknown --flag 'value' (a|b|...)" when it is none of them.
std::optional<std::size_t> check_choice(std::string_view flag,
                                        const std::string& value,
                                        const std::vector<std::string>& names) {
  const auto it = std::find(names.begin(), names.end(), value);
  if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
  std::string line = "unknown --" + std::string(flag) + " '" + value + "' (";
  for (std::size_t i = 0; i < names.size(); ++i)
    line += (i > 0 ? "|" : "") + names[i];
  reject(line + ")");
  return std::nullopt;
}

/// What the rows read from the command line, with both presentations of
/// the order-n dual-cube (constructing one costs nothing).
struct Params {
  std::string algo;
  unsigned n;
  u64 seed;
  std::string op;
  dc::KeyDistribution dist;
  unsigned bits;
  NodeId root;
  std::string pattern;
  dc::net::DualCube d;
  dc::net::RecursiveDualCube r;
};

/// Calls `f` with the --op monoid; main has checked the name.
template <typename F>
bool with_op(const std::string& op, F&& f) {
  if (op == "min") return f(dc::core::Min<u64>{});
  if (op == "max") return f(dc::core::Max<u64>{});
  if (op == "xor") return f(dc::core::Xor<u64>{});
  return f(dc::core::Plus<u64>{});
}

/// One value per node of D_n, uniform below `bound`, drawn from the seed.
std::vector<u64> draw_values(const Params& p, u64 bound) {
  dc::Rng rng(p.seed);
  std::vector<u64> values(p.d.node_count());
  for (auto& x : values) x = rng.below(bound);
  return values;
}

bool prefix_healthy(dc::sim::Machine& m, const Params& p, std::ostream& os) {
  const auto data = draw_values(p, 1000);
  return with_op(p.op, [&](const auto& op) {
    const auto out = dc::core::dual_prefix(m, p.d, op, data);
    const bool ok = out == dc::core::seq_inclusive_scan(op, data);
    os << "D_prefix(" << p.op << ") on " << p.d.name() << ": "
       << (ok ? "correct" : "WRONG") << "; last prefix = " << out.back()
       << "\n";
    return ok;
  });
}

bool prefix_ft(dc::sim::Machine& m, const Params& p,
               const dc::sim::FaultPlan& plan, dc::sim::FtReport& rep,
               std::ostream& os) {
  const auto data = draw_values(p, 1000);
  // Which prefix-order indices lost their input with the node that owned
  // them: those contribute the identity and report no output.
  std::vector<bool> dead_index(data.size(), false);
  for (const auto u : plan.dead_nodes())
    dead_index[dc::core::dual_prefix_index_of_node(p.d, u)] = true;
  const bool ok = with_op(p.op, [&](const auto& op) {
    const auto out = dc::core::ft_dual_prefix(m, p.d, op, data, plan,
                                              /*inclusive=*/true, &rep);
    bool all = true;
    u64 acc = op.identity();
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (dead_index[i]) {
        all = all && !out[i].has_value();
        continue;
      }
      acc = op.combine(acc, data[i]);
      all = all && out[i].has_value() && *out[i] == acc;
    }
    return all;
  });
  os << "fault-tolerant D_prefix(" << p.op << ") on " << p.d.name() << ": "
     << (ok ? "correct on every live node" : "WRONG") << "\n";
  return ok;
}

bool prefix_resilient(dc::sim::RecoveryDriver& drv, const Params& p,
                      std::ostream& os) {
  const auto data = draw_values(p, 1000);
  return with_op(p.op, [&](const auto& op) {
    const auto out = dc::sim::resilient_dual_prefix(drv, p.d, op, data);
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
    os << "self-healing D_prefix(" << p.op << ") on " << p.d.name() << ": "
       << (ok ? "correct on every live slot" : "WRONG") << "; " << holes
       << " dead slots\n";
    return ok;
  });
}

void theorem1_footer(const Params& p) {
  std::cout << "Theorem 1 bounds: comm <= "
            << dc::core::formulas::dual_prefix_comm_paper(p.n) << ", comp <= "
            << dc::core::formulas::dual_prefix_comp(p.n) << "\n";
}

bool sort_healthy(dc::sim::Machine& m, const Params& p, std::ostream& os) {
  auto keys = dc::generate_keys(p.dist, p.r.node_count(), p.seed);
  dc::core::dual_sort(m, p.r, keys);
  const bool ok = std::is_sorted(keys.begin(), keys.end());
  os << "D_sort on " << p.r.name() << " (" << dc::to_string(p.dist)
     << "): " << (ok ? "sorted" : "NOT SORTED") << "\n";
  return ok;
}

bool sort_ft(dc::sim::Machine& m, const Params& p,
             const dc::sim::FaultPlan& plan, dc::sim::FtReport& rep,
             std::ostream& os) {
  const auto keys = dc::generate_keys(p.dist, p.r.node_count(), p.seed);
  const auto out =
      dc::core::ft_dual_sort(m, p.r, keys, plan, /*descending=*/false, &rep);
  // Dead nodes' keys are lost with them; every surviving key ends up
  // sorted into the leading labels, the holes trail.
  std::vector<u64> expected;
  expected.reserve(keys.size());
  for (NodeId u = 0; u < p.r.node_count(); ++u)
    if (!plan.node_dead(u)) expected.push_back(keys[u]);
  std::sort(expected.begin(), expected.end());
  bool ok = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < expected.size()) {
      ok = ok && out[i].has_value() && *out[i] == expected[i];
    } else {
      ok = ok && !out[i].has_value();
    }
  }
  os << "fault-tolerant D_sort on " << p.r.name() << " ("
     << dc::to_string(p.dist) << "): "
     << (ok ? "survivor keys sorted" : "WRONG") << "; " << expected.size()
     << " of " << p.r.node_count() << " keys survive\n";
  return ok;
}

bool sort_resilient(dc::sim::RecoveryDriver& drv, const Params& p,
                    std::ostream& os) {
  const auto keys = dc::generate_keys(p.dist, p.r.node_count(), p.seed);
  const auto out = dc::core::resilient_dual_sort(drv, p.r, keys);
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
  os << "self-healing D_sort on " << p.r.name() << " ("
     << dc::to_string(p.dist) << "): "
     << (ok ? "survivor keys sorted" : "WRONG") << "; " << live << " of "
     << p.r.node_count() << " keys survive\n";
  return ok;
}

void theorem2_footer(const Params& p) {
  std::cout << "Theorem 2 exact: comm = "
            << dc::core::formulas::dual_sort_comm_exact(p.n) << ", comp = "
            << dc::core::formulas::dual_sort_comp_exact(p.n) << "\n";
}

bool radix_healthy(dc::sim::Machine& m, const Params& p, std::ostream& os) {
  dc::Rng rng(p.seed);
  std::vector<u64> keys(p.d.node_count());
  // 64-bit keys take every value; pow2(64) would be an out-of-range shift.
  for (auto& k : keys)
    k = p.bits == 64 ? rng() : rng.below(dc::bits::pow2(p.bits));
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto stats = dc::core::radix_sort(m, p.d, keys, p.bits);
  const bool ok = keys == expected;
  os << "radix sort (" << p.bits << "-bit keys) on " << p.d.name() << ": "
     << (ok ? "sorted" : "NOT SORTED") << " in " << stats.passes
     << " passes (" << stats.routing_cycles << " routing cycles)\n";
  return ok;
}

bool enum_healthy(dc::sim::Machine& m, const Params& p, std::ostream& os) {
  auto keys = dc::generate_keys(dc::KeyDistribution::kUniform,
                                p.d.node_count(), p.seed);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  const auto report = dc::core::enumeration_sort(m, p.d, keys);
  const bool ok = keys == expected;
  os << "enumeration sort on " << p.d.name() << ": "
     << (ok ? "sorted" : "NOT SORTED") << "; placement drain "
     << report.cycles << " cycles\n";
  return ok;
}

bool broadcast_healthy(dc::sim::Machine& m, const Params& p,
                       std::ostream& os) {
  const auto out = dc::collectives::dual_broadcast<u64>(m, p.d, p.root, 42);
  const bool ok =
      std::all_of(out.begin(), out.end(), [](u64 v) { return v == 42; });
  os << "broadcast from node " << p.root << " on " << p.d.name() << ": "
     << (ok ? "complete" : "INCOMPLETE") << "\n";
  return ok;
}

bool broadcast_ft(dc::sim::Machine& m, const Params& p,
                  const dc::sim::FaultPlan& plan, dc::sim::FtReport& rep,
                  std::ostream& os) {
  const auto out =
      dc::collectives::ft_dual_broadcast<u64>(m, p.d, p.root, 42, plan, &rep);
  bool ok = true;
  for (NodeId u = 0; u < p.d.node_count(); ++u) {
    if (plan.node_dead(u)) {
      ok = ok && !out[u].has_value();
    } else {
      ok = ok && out[u].has_value() && *out[u] == 42;
    }
  }
  os << "fault-tolerant broadcast from node " << p.root << " on "
     << p.d.name() << ": " << (ok ? "reached every live node" : "INCOMPLETE")
     << "\n";
  return ok;
}

bool broadcast_resilient(dc::sim::RecoveryDriver& drv, const Params& p,
                         std::ostream& os) {
  const auto out = dc::sim::resilient_dual_broadcast(drv, p.d, p.root, u64{42});
  bool ok = true;
  std::size_t holes = 0;
  for (const auto& v : out) {
    if (v.has_value()) {
      ok = ok && *v == 42;
    } else {
      ++holes;
    }
  }
  os << "self-healing broadcast from node " << p.root << " on " << p.d.name()
     << ": " << (ok ? "value on every live node" : "WRONG") << "; " << holes
     << " dead nodes\n";
  return ok;
}

void diameter_footer(const Params& p) {
  std::cout << "diameter: " << p.d.diameter() << "\n";
}

bool allreduce_healthy(dc::sim::Machine& m, const Params& p,
                       std::ostream& os) {
  const auto values = draw_values(p, 100);
  const u64 expected = std::accumulate(values.begin(), values.end(), u64{0});
  const auto out =
      dc::collectives::dual_allreduce(m, p.d, dc::core::Plus<u64>{}, values);
  const bool ok = std::all_of(out.begin(), out.end(),
                              [&](u64 v) { return v == expected; });
  os << "allreduce(+) on " << p.d.name() << ": "
     << (ok ? "agrees everywhere" : "DISAGREES") << "; total " << expected
     << "\n";
  return ok;
}

bool route_healthy(dc::sim::Machine& m, const Params& p, std::ostream& os) {
  const std::size_t N = p.d.node_count();
  std::vector<NodeId> dest(N);
  if (p.pattern == "random") {
    std::iota(dest.begin(), dest.end(), 0);
    dc::Rng rng(p.seed);
    for (std::size_t i = N; i-- > 1;) std::swap(dest[i], dest[rng.below(i + 1)]);
  } else if (p.pattern == "complement") {
    for (NodeId u = 0; u < N; ++u) dest[u] = N - 1 - u;
  } else {  // "cross"
    for (NodeId u = 0; u < N; ++u) dest[u] = p.d.cross_neighbor(u);
  }
  const auto report = dc::sim::route_packets(m, dest, [&](NodeId s, NodeId v) {
    return dc::net::route_dual_cube(p.d, s, v);
  });
  dc::Table t("routing report (" + p.pattern + ")");
  t.header({"metric", "value"});
  t.add("packets", report.packets);
  t.add("drain cycles", report.cycles);
  t.add("total hops", report.total_hops);
  t.add("avg latency", report.avg_latency);
  t.add("max queue", report.max_queue);
  os << t;
  return true;
}

/// One --algo row (see the header comment). A null ft or resilient entry
/// rejects --faults or --fault-timeline for that row.
struct Algo {
  std::string_view name;
  bool recursive = false;  ///< runs on RD_n, not D_n
  bool oblivious = false;  ///< compiled-path warm-up, schedule-path line
  bool counters = false;   ///< prints the model step counters
  bool live_root = false;  ///< --root must survive every fault
  bool (*healthy)(dc::sim::Machine&, const Params&, std::ostream&) = nullptr;
  bool (*ft)(dc::sim::Machine&, const Params&, const dc::sim::FaultPlan&,
             dc::sim::FtReport&, std::ostream&) = nullptr;
  bool (*resilient)(dc::sim::RecoveryDriver&, const Params&,
                    std::ostream&) = nullptr;
  void (*footer)(const Params&) = nullptr;  ///< after the run summary

  const dc::net::Topology& topology(const Params& p) const {
    return recursive ? static_cast<const dc::net::Topology&>(p.r) : p.d;
  }
};

const Algo kAlgos[] = {
    {.name = "prefix", .oblivious = true, .counters = true,
     .healthy = prefix_healthy, .ft = prefix_ft,
     .resilient = prefix_resilient, .footer = theorem1_footer},
    {.name = "sort", .recursive = true, .oblivious = true, .counters = true,
     .healthy = sort_healthy, .ft = sort_ft, .resilient = sort_resilient,
     .footer = theorem2_footer},
    {.name = "radix", .counters = true, .healthy = radix_healthy},
    {.name = "enum", .counters = true, .healthy = enum_healthy},
    {.name = "broadcast", .oblivious = true, .counters = true,
     .live_root = true, .healthy = broadcast_healthy, .ft = broadcast_ft,
     .resilient = broadcast_resilient, .footer = diameter_footer},
    {.name = "allreduce", .oblivious = true, .counters = true,
     .healthy = allreduce_healthy},
    {.name = "route", .healthy = route_healthy},
};

int run_healthy(const Algo& a, const Params& p) {
  dc::sim::Machine m(a.topology(p));
  setup_machine(m, "measured");
  if (a.oblivious && g_schedule == dc::sim::SchedulePath::kCompiled) {
    // Warm-up records and caches the schedule so the reported run replays.
    dc::sim::Machine warm(a.topology(p));
    setup_machine(warm, "warm-up");
    std::ostream discard(nullptr);
    (void)a.healthy(warm, p, discard);
  }
  const bool ok = a.healthy(m, p, std::cout);
  if (a.counters) print_counters(m.counters());
  if (a.oblivious) print_schedule_path(m);
  print_run_summary(m);
  if (a.footer) a.footer(p);
  return ok ? 0 : 1;
}

/// The rules both fault modes check before any machine exists, on the
/// run's timeline: without a degrade fallback, D_n's n-connectivity must
/// cover the peak of simultaneous node faults, and a broadcast root must
/// never go down. `timed` picks the --fault-timeline wording over the
/// --faults one. Rejects and returns false when a rule fails.
bool check_fault_rules(const Algo& a, const Params& p,
                       const dc::sim::FaultTimeline& tl, bool strict,
                       bool timed) {
  const std::string n = std::to_string(p.n);
  const std::size_t peak = tl.max_concurrent_node_faults();
  if (strict && peak >= p.n) {
    const std::string bound =
        timed ? " concurrent node faults; the timeline peaks at "
              : " node faults (" + a.topology(p).name() + " is " + n +
                    "-connected); got ";
    reject("strict policy covers only fewer than n=" + n + bound +
           std::to_string(peak) +
           ". Use --fault-policy=degrade to attempt the run anyway.");
    return false;
  }
  const auto events = tl.node_events();
  if (a.live_root &&
      std::any_of(events.begin(), events.end(),
                  [&](const auto& ev) { return ev.node == p.root; })) {
    reject(std::string(timed ? "fault timeline" : "fault spec") +
           " kills the broadcast root " + std::to_string(p.root) +
           "; pick a live --root");
    return false;
  }
  return true;
}

int run_with_faults(const Algo* a, const Params& p, const std::string& spec,
                    dc::sim::FaultPolicy policy) {
  if (!a || !a->ft) {
    return reject("--faults supports only --algo=prefix|broadcast|sort (got '" +
                  p.algo + "')");
  }
  // Parse the spec against the topology the algorithm will actually see
  // so node-range errors name it.
  const dc::net::Topology& topo = a->topology(p);
  dc::sim::FaultPlan plan;
  try {
    plan = dc::sim::parse_fault_spec(spec, topo, p.seed);
  } catch (const dc::CheckError& e) {
    return reject("bad --faults spec: " + std::string(e.what()));
  }
  const auto tl = std::make_shared<const dc::sim::FaultTimeline>(plan);
  if (!check_fault_rules(*a, p, *tl, policy == dc::sim::FaultPolicy::kStrict,
                         /*timed=*/false))
    return 2;
  try {
    dc::sim::Machine m(topo);
    setup_machine(m, "measured");
    m.attach_faults(tl, policy);
    dc::sim::FtReport rep;
    const bool ok = a->ft(m, p, plan, rep, std::cout);
    print_fault_report(plan, rep, policy);
    print_counters(m.counters());
    print_run_summary(m);
    return ok ? 0 : 1;
  } catch (const dc::sim::FaultError& e) {
    std::cout << "fault-tolerant run failed: " << e.what() << "\n";
    g_report.status = "fault_error";
    g_report.error = e.what();
    return 1;
  }
}

/// Parses --fault-timeline for the flat and the sharded runs alike; null
/// (after rejecting it) when the spec is malformed.
std::shared_ptr<const dc::sim::FaultTimeline> parse_timeline(
    const std::string& spec, const dc::net::Topology& topo, u64 seed) {
  try {
    return std::make_shared<const dc::sim::FaultTimeline>(
        dc::sim::parse_fault_timeline(spec, topo, seed));
  } catch (const dc::CheckError& e) {
    reject("bad --fault-timeline spec: " + std::string(e.what()));
    return nullptr;
  }
}

int run_with_timeline(const Algo* a, const Params& p, const std::string& spec,
                      const std::string& policy_name,
                      std::size_t retry_budget) {
  if (!a || !a->resilient) {
    return reject(
        "--fault-timeline supports only --algo=prefix|broadcast|sort (got '" +
        p.algo + "')");
  }
  dc::sim::RetryPolicy rp;
  rp.retry_budget = retry_budget;
  rp.degrade_on_exhaustion = policy_name == "degrade";
  try {
    const dc::net::Topology& topo = a->topology(p);
    const auto tl = parse_timeline(spec, topo, p.seed);
    if (!tl ||
        !check_fault_rules(*a, p, *tl, !rp.degrade_on_exhaustion,
                           /*timed=*/true))
      return 2;
    dc::sim::Machine m(topo);
    setup_machine(m, "measured");
    dc::sim::RecoveryDriver drv(m, tl, rp);
    bool ok = false;
    try {
      ok = a->resilient(drv, p, std::cout);
    } catch (const dc::sim::FaultError&) {
      // The report keeps what the run did before the machine unwinds.
      note_recovery(drv, m);
      note_measured_run(m);
      throw;
    }
    print_recovery_report(drv, m);
    print_counters(m.counters());
    print_run_summary(m);
    return ok ? 0 : 1;
  } catch (const dc::sim::FaultError& e) {
    // The driver stops short of its budget when no later fault event can
    // change what a retry would see.
    std::cout << "self-healing run failed ("
              << (g_report.fault.retries < retry_budget
                      ? std::string("no retry could help")
                      : "retry budget " + std::to_string(retry_budget) +
                            " exhausted")
              << " under " << policy_name << "): " << e.what() << "\n";
    g_report.status = "fault_error";
    g_report.error = e.what();
    return 1;
  } catch (const dc::CheckError& e) {
    return reject("bad --fault-timeline spec: " + std::string(e.what()));
  }
}

/// Kernel-measured peak resident set of this process, in bytes (Linux
/// reports ru_maxrss in kilobytes).
std::size_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

int run_sharded_prefix(const Params& p, unsigned shards, std::size_t budget,
                       const dc::sim::FaultTimeline* tl) {
  const dc::net::DualCube& d = p.d;
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
  const bool faulted = tl != nullptr;
  if (faulted) eng.attach_faults(*tl, dc::sim::FaultPolicy::kDegrade);

  // Streaming input: a stateless per-index generator, so no global data
  // vector ever exists — the only O(N) state is the result store, and with
  // a tight --mem-budget not even that stays resident.
  const auto data_of = [seed = p.seed](u64 i) -> u64 {
    u64 x = i + seed * 0x9E3779B97F4A7C15ull;
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x % 1000;
  };

  // Streaming verification: the sink receives ascending slices tiling
  // [0, N), so one running accumulator checks every prefix as it streams
  // past without materializing the expected vector.
  u64 last = 0;
  std::size_t diverged = 0;
  const bool ok = with_op(p.op, [&](const auto& op) {
    u64 acc = op.identity();
    u64 next_base = 0;
    bool tiled = true;
    dc::core::sharded_dual_prefix(
        eng, op, data_of,
        [&](u64 base, const u64* values, std::size_t count) {
          tiled = tiled && base == next_base;
          for (std::size_t t = 0; t < count; ++t) {
            acc = op.combine(acc, data_of(base + t));
            if (values[t] != acc) ++diverged;
          }
          next_base = base + count;
          if (count > 0) last = values[count - 1];
        });
    // Healthy runs must stream exactly; faulted degrade runs report the
    // divergence instead of failing (dropped messages lose prefix terms).
    return tiled && next_base == d.node_count() && (faulted || diverged == 0);
  });

  const auto& st = eng.stats();
  std::cout << "sharded D_prefix(" << p.op << ") on " << d.name() << " ("
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
  theorem1_footer(p);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
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

  if (!check_choice("schedule", schedule, {"compiled", "interpreted"}))
    return 2;
  g_schedule = schedule == "compiled" ? dc::sim::SchedulePath::kCompiled
                                      : dc::sim::SchedulePath::kInterpreted;

  // Range-check before narrowing: a wrapped --n, --root or --shards would
  // silently run a different network, node or shard count, a wrapped
  // --bits an undefined shift, and a negative budget no cap at all.
  if (!check_range(n_arg, 1, 20, "n must be a dual-cube order in 1..20"))
    return 2;
  const unsigned n = static_cast<unsigned>(n_arg);
  const std::string dn = "D_" + std::to_string(n);
  const std::int64_t node_count = std::int64_t{1} << (2 * n - 1);
  const std::int64_t cluster_count = std::int64_t{1} << n;
  if (!check_range(root_arg, 0, node_count - 1,
                   "root must be a node of " + dn + " in 0.." +
                       std::to_string(node_count - 1)) ||
      !check_range(bits_arg, 1, 64, "bits must be a key width in 1..64") ||
      !check_range(shards_arg, 0, cluster_count,
                   "shards must be a shard count in 0.." +
                       std::to_string(cluster_count) + " for " + dn) ||
      !check_range(mem_budget_arg, 0, INT64_MAX,
                   "mem-budget must be >= 0 bytes") ||
      !check_range(retry_budget_arg, 0, INT64_MAX,
                   "retry-budget must be >= 0"))
    return 2;
  const unsigned shards = static_cast<unsigned>(shards_arg);
  const std::size_t mem_budget = static_cast<std::size_t>(mem_budget_arg);

  const auto dists = dc::all_key_distributions();
  std::vector<std::string> dist_names;
  for (const auto d : dists) dist_names.push_back(dc::to_string(d));
  const auto dist = check_choice("dist", dist_name, dist_names);
  if (!dist) return 2;

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

  if (!metrics.empty() && metrics != "true" &&
      !check_choice("metrics", metrics, {"table", "json"}))
    return 2;
  const dc::sim::MetricsFormat metrics_fmt =
      metrics == "json" ? dc::sim::MetricsFormat::kJson
                        : dc::sim::MetricsFormat::kTable;
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

  const Params p{.algo = algo, .n = n, .seed = seed, .op = op,
                 .dist = dists[*dist], .bits = static_cast<unsigned>(bits_arg),
                 .root = static_cast<NodeId>(root_arg), .pattern = pattern,
                 .d = dc::net::DualCube(n), .r = dc::net::RecursiveDualCube(n)};
  std::vector<std::string> algo_names;
  const Algo* row = nullptr;
  for (const Algo& a : kAlgos) {
    algo_names.emplace_back(a.name);
    if (a.name == algo) row = &a;
  }

  const auto run = [&]() -> int {
    // Choice flags only some rows read are checked on every run, inside
    // it so the rejection still writes its --report and --trace.
    if (!check_choice("fault-policy", fault_policy, {"strict", "degrade"}) ||
        !check_choice("op", op, {"plus", "min", "max", "xor"}) ||
        !check_choice("pattern", pattern, {"random", "complement", "cross"}))
      return 2;
    if (shards > 0) {
      if (algo != "prefix")
        return reject("--shards supports only --algo=prefix (got '" + algo +
                      "')");
      if (!faults.empty())
        return reject("--shards and --faults cannot be combined");
      if (!fault_timeline.empty() && fault_policy != "degrade") {
        return reject(
            "--shards with --fault-timeline requires --fault-policy=degrade "
            "(per-shard machines cannot retry the host-side exchange)");
      }
      std::shared_ptr<const dc::sim::FaultTimeline> tl;
      if (!fault_timeline.empty()) {
        tl = parse_timeline(fault_timeline, p.d, seed);
        if (!tl) return 2;
      }
      if (!dc::bits::is_pow2(shards))
        return reject("--shards must be a power of two (got " +
                      std::to_string(shards) + ")");
      try {
        return run_sharded_prefix(p, shards, mem_budget, tl.get());
      } catch (const dc::CheckError& e) {
        return reject("sharded run rejected: " + std::string(e.what()));
      }
    }
    if (mem_budget > 0) return reject("--mem-budget requires --shards");
    if (!faults.empty() && !fault_timeline.empty())
      return reject("--faults and --fault-timeline cannot be combined");
    if (!fault_timeline.empty())
      return run_with_timeline(row, p, fault_timeline, fault_policy,
                               static_cast<std::size_t>(retry_budget_arg));
    if (!faults.empty())
      return run_with_faults(row, p, faults,
                             fault_policy == "degrade"
                                 ? dc::sim::FaultPolicy::kDegrade
                                 : dc::sim::FaultPolicy::kStrict);
    if (!check_choice("algo", algo, algo_names)) return 2;
    return run_healthy(*row, p);
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
  } else if (g_report.status != "ok" && g_report.status != "rejected") {
    // A run that died mid-collective; a refusal ran nothing to replay.
    std::cout << "flight recorder: " << g_report.flight.size()
              << " events retained; re-run with --report=FILE.json for the "
                 "full crash report\n";
  }
  if (!metrics.empty()) std::cout << dc::sim::metrics_report(metrics_fmt);
  return rc;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, no check expression or source path.
  std::cout << e.what() << "\n";
  return 2;
}
