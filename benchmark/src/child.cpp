// Child side of dcbench. Every op and every layer probe runs in a process
// the parent spawned and watches; this file is the only one that calls the
// simulator library.
//
// Layer probes call only public functions the algorithms themselves reach:
// the Machine ctor, comm_cycle, compute_step, counters, replayed_cycles,
// ObliviousSection exchange / callback-form exchange_blocks,
// parallel_for_chunked / parallel_for_affine, the topology ctors and
// FlatAdjacency, ScheduleCache clear/stats and attach_schedule_store, the
// ShardEngine ctor and queries, and merge_split. Each probe uses the op's own
// node count, block width and destination pattern.
#include "child.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops.hpp"
#include "sim/oblivious.hpp"
#include "sim/schedule.hpp"
#include "sim/schedule_store.hpp"
#include "sim/simd.hpp"
#include "support/thread_pool.hpp"
#include "topology/flat_adjacency.hpp"
#include "topology/shard_plan.hpp"
#include "wire.hpp"

namespace dcbench {
namespace {

using dc::net::NodeId;
using ull = unsigned long long;

[[gnu::format(printf, 1, 2)]] void report(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf - 1, fmt, ap);
  va_end(ap);
  if (n < 0) return;
  std::size_t len = std::min(static_cast<std::size_t>(n), sizeof buf - 2);
  buf[len++] = '\n';
  // The parent is gone or the pipe is broken: nobody is listening.
  if (::write(kReportFd, buf, len) != static_cast<ssize_t>(len)) _exit(1);
}

/// Keeps the compiler from discarding a probe's otherwise unused work.
template <typename T>
void keep(const T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

void report_metric(const char* name, double value) {
  report("M %s %.17g", name, value);
}

/// In-memory spans (name, start, end, parent), reported when a group ends.
class Spans {
 public:
  std::uint32_t begin(std::string name, std::uint32_t parent) {
    spans_.push_back({std::move(name), parent, 0, 0});
    spans_.back().start = now_ns();  // after any reallocation
    return static_cast<std::uint32_t>(spans_.size());
  }
  /// Closes span `id` and returns its duration in ns.
  std::uint64_t end(std::uint32_t id) {
    Span& s = spans_[id - 1];
    s.end = now_ns();
    return s.end - s.start;
  }
  void flush() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      report("T %zu %u %llu %llu %s", i + 1, s.parent, ull{s.start},
             ull{s.end}, s.name.c_str());
    }
  }

 private:
  struct Span {
    std::string name;
    std::uint32_t parent;
    std::uint64_t start, end;
  };
  std::vector<Span> spans_;
};

void hello() {
  report("H %zu %s", dc::ThreadPool::shared().size(),
         dc::sim::simd::isa_name(dc::sim::simd::active_isa()));
}

// ---- one verified op ----------------------------------------------------

struct OpRun {
  Status status = Status::kOk;
  std::uint64_t wall_ns = 0;
  OpCounters c;
};

/// Prepares, times and verifies op `index`. `inject` plants the self-test
/// faults: a corrupted reference or a wrong expected cycle count on every
/// fifth op, or a stall, crash or exception at op 3.
OpRun run_op(Op& op, u64 index, const std::string& inject,
             Spans* spans = nullptr, std::uint32_t parent = 0) {
  OpRun r;
  try {
    op.prepare(index);
    u64 comm = op.expected_comm_cycles();
    const u64 comp = op.expected_comp_steps();
    if (index % 5 == 2) {
      if (inject == "wrong") op.corrupt_reference();
      if (inject == "counters") ++comm;
    }
    if (index == 3) {
      if (inject == "stall")
        for (;;) ::pause();
      if (inject == "crash") std::abort();
      if (inject == "exception") throw std::runtime_error("injected");
    }
    const std::uint32_t id = spans ? spans->begin("op", parent) : 0;
    const std::uint64_t t0 = now_ns();
    r.c = op.run();
    r.wall_ns = now_ns() - t0;
    if (spans) spans->end(id);
    if (!op.result_ok()) {
      r.status = Status::kWrong;
    } else if (r.c.counters.comm_cycles != comm ||
               r.c.counters.comp_steps != comp) {
      r.status = Status::kCounters;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcbench: op %llu threw: %s\n", ull{index},
                 e.what());
    r.status = Status::kException;
  }
  return r;
}

void report_op(u64 index, const OpRun& r, u64 items, bool cold) {
  const dc::sim::Counters& c = r.c.counters;
  report("O %llu %llu %llu %d %s %llu %llu %llu %llu", ull{index},
         ull{r.wall_ns}, ull{items}, cold ? 1 : 0, status_name(r.status),
         ull{c.comm_cycles}, ull{c.comp_steps}, ull{c.messages}, ull{c.ops});
}

/// Runs, reports and returns one op; a thrown op ends the child.
OpRun step(Op& op, u64& index, bool cold, const std::string& inject = {},
           Spans* spans = nullptr, std::uint32_t parent = 0) {
  const OpRun r = run_op(op, index, inject, spans, parent);
  report_op(index++, r, op.items(), cold);
  if (r.status == Status::kException) throw std::runtime_error("op threw");
  return r;
}

/// The cold op, S (main() entry to its verified result), then ops back to
/// back until until_ns.
int op_child(const ChildArgs& a, std::uint64_t t_main) {
  const auto op = make_op(*a.workload, a.seed);
  hello();
  u64 index = a.first_op;
  step(*op, index, /*cold=*/true, a.inject);
  report("S %llu", ull{now_ns() - t_main});
  while (now_ns() < a.until_ns) step(*op, index, /*cold=*/false, a.inject);
  report("E");
  return 0;
}

// ---- probes ---------------------------------------------------------------

/// Times `calls` invocations of f after one untimed warm-up: one span per
/// call under a span for the probe, and a heartbeat to the parent after
/// each. Returns the median call in ns.
template <typename F>
double probe(Spans& sp, std::uint32_t parent, const char* name, int calls,
             F&& f) {
  f();
  const std::uint32_t group = sp.begin(name, parent);
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const std::uint32_t id = sp.begin(name, group);
    f();
    ns.push_back(static_cast<double>(sp.end(id)));
    report("P %d", i);
  }
  sp.end(group);
  return median(ns);
}

/// Median wall time (ms) of `calls` verified ops, `before` run first each
/// time (untimed).
template <typename F>
double op_probe(Spans& sp, std::uint32_t parent, const char* name, Op& op,
                u64& index, int calls, F&& before) {
  const std::uint32_t group = sp.begin(name, parent);
  std::vector<double> ms;
  for (int i = 0; i < calls; ++i) {
    before();
    const OpRun r = step(op, index, /*cold=*/true, {}, &sp, group);
    if (r.status == Status::kOk) ms.push_back(static_cast<double>(r.wall_ns) / 1e6);
  }
  sp.end(group);
  if (ms.empty()) throw std::runtime_error(std::string(name) + ": no verified op");
  return median(ms);
}

/// Calls per cheap probe: enough for a stable median, bounded for big N.
int calls_for(u64 nodes, int most) {
  return static_cast<int>(std::clamp<u64>((u64{1} << 23) / nodes, 20,
                                          static_cast<u64>(most)));
}

void ops_group(const ChildArgs& a, Spans& sp, std::uint32_t root) {
  const Workload& w = *a.workload;
  const auto op = make_op(w, a.seed);
  u64 index = a.first_op;
  step(*op, index, /*cold=*/true);
  dc::ThreadPool& pool = dc::ThreadPool::shared();
  const std::uint64_t steals0 = pool.affinity_steals();
  std::vector<double> traced, untraced;
  OpRun last;
  // Traced and untraced ops alternate so drift hits both sides alike.
  for (unsigned i = 0; i < 2 * w.trace_ops; ++i) {
    const bool on = i % 2 == 1;
    last = step(*op, index, false, {}, on ? &sp : nullptr, root);
    if (last.status == Status::kOk)
      (on ? traced : untraced).push_back(static_cast<double>(last.wall_ns) / 1e6);
  }
  if (traced.empty() || untraced.empty())
    throw std::runtime_error("ops: no verified op");
  report_metric("trace.run_ms_p50", median(traced));
  report_metric("ops.untraced_ms", median(untraced));
  report_metric("pool.steals_per_op",
                static_cast<double>(pool.affinity_steals() - steals0) /
                    (2.0 * w.trace_ops));
  const auto st = dc::sim::ScheduleCache::instance().stats();
  report_metric("schedule.bytes", static_cast<double>(st.bytes));
  const double lookups = static_cast<double>(st.hits + st.misses);
  report_metric("schedule.hit_ratio",
                lookups > 0 ? static_cast<double>(st.hits) / lookups : 0.0);
  const dc::sim::Counters& c = last.c.counters;
  report_metric("model.comm_cycles", static_cast<double>(c.comm_cycles));
  report_metric("model.comp_steps", static_cast<double>(c.comp_steps));
  report_metric("model.messages", static_cast<double>(c.messages));
  report_metric("model.ops", static_cast<double>(c.ops));
  report_metric("replay.cycles_per_op",
                static_cast<double>(last.c.replayed_cycles));
}

/// Interpreted-cycle, replay and compute probes on `topo`: `dest` is one
/// of the op's destination patterns, `width` its block width, `scalar`
/// whether the op ships plain values through exchange() (dual_sort) rather
/// than width-w blocks through exchange_blocks().
template <typename Dest, typename Compute>
void cycle_probes(const dc::net::Topology& topo, Dest dest, std::size_t width,
                  bool scalar, Compute&& compute, Spans& sp,
                  std::uint32_t root) {
  const u64 nodes = topo.node_count();
  const int calls = calls_for(nodes * width, 200);
  std::vector<u64> plane(nodes * width);
  dc::Rng rng(7);
  for (u64& x : plane) x = rng();

  for (const bool validate : {true, false}) {
    dc::sim::Machine m(topo, validate);
    const double ns = probe(
        sp, root, validate ? "interp.cycle" : "interp.novalidate_cycle", calls,
        [&] {
          if (width == 1) {
            auto in = m.comm_cycle<u64>([&](NodeId u) {
              return std::optional<dc::sim::Send<u64>>{{dest(u), plane[u]}};
            });
            keep(&in);
          } else {
            auto in = m.comm_cycle<std::vector<u64>>([&](NodeId u) {
              const u64* b = plane.data() + u * width;
              return std::optional<dc::sim::Send<std::vector<u64>>>{
                  {dest(u), std::vector<u64>(b, b + width)}};
            });
            keep(&in);
          }
        });
    report_metric(validate ? "interp.cycle_us" : "interp.novalidate_cycle_us",
                  ns / 1e3);
  }

  {
    dc::sim::Machine m(topo);
    const auto exchange = [&](dc::sim::ObliviousSection& sec) {
      if (scalar) {
        auto in = sec.exchange<u64>(dest, [&](NodeId u) { return plane[u]; });
        keep(&in);
      } else {
        auto in = sec.exchange_blocks<u64>(width, dest, [&](NodeId u, u64* dst) {
          std::copy_n(plane.data() + u * width, width, dst);
        });
        keep(in.data());
      }
    };
    // Record calls + 1 identical cycles (the +1 is probe()'s warm-up),
    // then time each cycle of a replaying section.
    const std::vector<u64> params{width, static_cast<u64>(calls)};
    {
      dc::sim::ObliviousSection rec(m, "dcbench.replay_probe", params);
      for (int i = 0; i <= calls; ++i) exchange(rec);
      rec.commit();
    }
    dc::sim::ObliviousSection sec(m, "dcbench.replay_probe", params);
    if (!sec.replaying()) throw std::runtime_error("replay probe did not replay");
    const double ns = probe(sp, root, "replay.cycle", calls, [&] { exchange(sec); });
    report_metric("replay.cycle_us", ns / 1e3);
    // Computed, not measured: each receiver reads and writes one block and
    // reads its 8-byte recv_from entry and writes an 8-byte stamp.
    const double bytes = static_cast<double>(nodes) *
                         (2.0 * static_cast<double>(width * sizeof(u64)) + 16);
    report_metric("replay.gbps_computed", bytes / ns);
  }

  {
    dc::sim::Machine m(topo);
    const double ns = probe(sp, root, "compute.step", calls, [&] { compute(m); });
    report_metric("compute.step_us", ns / 1e3);
  }
}

void layers_group(const ChildArgs& a, Spans& sp, std::uint32_t root) {
  const Workload& w = *a.workload;
  const unsigned n = w.order;

  // Topology build and CSR snapshot.
  std::unique_ptr<dc::net::Topology> topo;
  if (w.kind == Kind::kPrefix) {
    topo = std::make_unique<dc::net::DualCube>(n);
    report_metric("topology.build_ms",
                  probe(sp, root, "topology.build", 50, [&] {
                    const dc::net::DualCube d(n);
                    keep(&d);
                  }) / 1e6);
  } else if (w.kind == Kind::kSort) {
    topo = std::make_unique<dc::net::RecursiveDualCube>(n);
    report_metric("topology.build_ms",
                  probe(sp, root, "topology.build", 50, [&] {
                    const dc::net::RecursiveDualCube r(n);
                    keep(&r);
                  }) / 1e6);
  } else {
    // A shard machine runs on the per-shard cluster topology.
    const dc::net::DualCube d(n);
    const dc::net::ShardPlan plan(d, w.shards);
    topo = std::make_unique<dc::net::ShardClusterTopology>(
        n - 1, plan.clusters_per_shard());
    report_metric("topology.build_ms",
                  probe(sp, root, "topology.build", 50, [&] {
                    const dc::net::DualCube dd(n);
                    const dc::net::ShardPlan p(dd, w.shards);
                    const dc::net::ShardClusterTopology t(
                        n - 1, p.clusters_per_shard());
                    keep(&t);
                  }) / 1e6);
  }
  const u64 nodes = topo->node_count();
  report_metric("topology.csr_ms",
                probe(sp, root, "topology.csr", calls_for(nodes * 16, 50), [&] {
                  const dc::net::FlatAdjacency adj(*topo);
                  keep(&adj);
                }) / 1e6);
  report_metric("machine.ctor_us", probe(sp, root, "machine.ctor", 200, [&] {
                                     const dc::sim::Machine m(*topo);
                                     keep(&m);
                                   }) / 1e3);

  // Per-node compute bodies of the op, on its own array shapes.
  std::vector<u64> t(nodes), s(nodes), recv(nodes);
  dc::Rng rng(11);
  for (std::size_t u = 0; u < nodes; ++u) {
    t[u] = rng();
    s[u] = rng();
    recv[u] = rng();
  }
  const auto flip0 = [](NodeId u) { return u ^ 1; };
  if (w.kind == Kind::kPrefix) {
    const auto& d = static_cast<const dc::net::DualCube&>(*topo);
    // Step 1's first in-cluster pass (cluster_prefix, dimension 0), and a
    // cross-edge exchange (steps 2 and 4).
    cycle_probes(
        d, [&d](NodeId u) { return d.cross_neighbor(u); }, 1, false,
        [&](dc::sim::Machine& m) {
          m.compute_step([&](NodeId u) {
            const u64 temp = recv[u];
            const unsigned base = d.node_class(u) == 0 ? 0u : d.order() - 1;
            if (dc::bits::get(u, base) == 1) {
              s[u] = temp + s[u];
              t[u] = temp + t[u];
              m.add_ops(2);
            } else {
              t[u] = t[u] + temp;
              m.add_ops(1);
            }
          });
        },
        sp, root);
  } else if (w.kind == Kind::kSort && w.width == 1) {
    // A dimension-0 compare-exchange step of dual_bitonic_network.
    cycle_probes(
        *topo, flip0, 1, true,
        [&](dc::sim::Machine& m) {
          m.compute_step([&](NodeId u) {
            const bool keep_min = dc::bits::get(u, 0) == 0;
            if (keep_min == (recv[u] < t[u])) t[u] = recv[u];
            m.add_ops(1);
          });
        },
        sp, root);
  } else if (w.kind == Kind::kSort) {
    // A dimension-0 merge-split step of dual_bitonic_network_blocks over
    // sorted width-w blocks.
    const std::size_t width = w.width;
    std::vector<u64> own(nodes * width), other(nodes * width), out(nodes * width);
    for (std::size_t i = 0; i < own.size(); ++i) {
      own[i] = rng();
      other[i] = rng();
    }
    for (std::size_t u = 0; u < nodes; ++u) {
      std::sort(own.begin() + static_cast<std::ptrdiff_t>(u * width),
                own.begin() + static_cast<std::ptrdiff_t>((u + 1) * width));
      std::sort(other.begin() + static_cast<std::ptrdiff_t>(u * width),
                other.begin() + static_cast<std::ptrdiff_t>((u + 1) * width));
    }
    cycle_probes(
        *topo, flip0, width, false,
        [&](dc::sim::Machine& m) {
          m.compute_step([&](NodeId u) {
            dc::core::detail::merge_split(own.data() + u * width,
                                          other.data() + u * width, width,
                                          dc::bits::get(u, 0) == 0,
                                          out.data() + u * width);
            m.add_ops(2 * width);
          });
        },
        sp, root);
  } else {
    // The in-cluster exchange of Pass A (dimension 0) and Pass B's step-4
    // fold on one shard machine.
    const unsigned wbits = n - 1;
    cycle_probes(
        *topo, flip0, 1, false,
        [&](dc::sim::Machine& m) {
          m.compute_step([&](NodeId l) {
            s[l] = recv[l >> wbits] + s[l];
            m.add_ops(1);
          });
        },
        sp, root);
  }

  // The block sort's merge-split kernel at width 256, on interleaving
  // blocks so the disjoint fast path stays cold; 64 calls per sample.
  constexpr std::size_t kWidth = 256;
  constexpr int kBatch = 64;
  std::vector<u64> ka(kWidth), kb(kWidth), ko(kWidth);
  for (std::size_t i = 0; i < kWidth; ++i) {
    ka[i] = rng();
    kb[i] = rng();
  }
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  const double ns = probe(sp, root, "kernel.merge_split", 200, [&] {
                      for (int i = 0; i < kBatch; ++i) {
                        dc::core::detail::merge_split(ka.data(), kb.data(), kWidth,
                                                      i % 2 == 0, ko.data());
                        keep(ko.data());
                      }
                    }) /
                    kBatch;
  report_metric("kernel.merge_split_ns", ns);
  report_metric("kernel.merge_split_mkeys_per_s", kWidth / ns * 1e3);
}

/// Cold op minus warm op: a cleared ScheduleCache makes the next op record
/// and validate every schedule; a primed store makes it load them instead.
void cold_group(const ChildArgs& a, Spans& sp, std::uint32_t root) {
  const Workload& w = *a.workload;
  const auto op = make_op(w, a.seed);
  auto& cache = dc::sim::ScheduleCache::instance();
  const int calls = static_cast<int>(std::max(5u, w.trace_ops / 5));
  u64 index = a.first_op;
  step(*op, index, /*cold=*/true);
  const double warm = op_probe(sp, root, "op.warm", *op, index, calls, [] {});
  const auto cold_start = [&] {
    cache.clear();
    op->reset();
  };
  const double cold = op_probe(sp, root, "op.cold", *op, index, calls, cold_start);
  report_metric("schedule.record_ms", cold - warm);

  const char* tmp = std::getenv("TMPDIR");
  const std::filesystem::path dir = std::filesystem::path(tmp ? tmp : ".") /
                                    ("dcbench-store-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  dc::sim::attach_schedule_store(dir.string());
  cold_start();
  step(*op, index, /*cold=*/true);  // records and writes through
  const double load = op_probe(sp, root, "op.store_load", *op, index, calls, cold_start);
  cache.attach_store(nullptr);
  std::filesystem::remove_all(dir);
  report_metric("schedule.store_load_ms", load - warm);
}

void pool_group(const ChildArgs& a, Spans& sp, std::uint32_t root) {
  const Workload& w = *a.workload;
  // The loop range the op's machines run over: all nodes, or one shard.
  const u64 nodes = dc::bits::pow2(2 * w.order - 1) /
                    (w.kind == Kind::kSharded ? w.shards : 1);
  std::vector<u64> v(nodes);
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) v[i] += 1;
  };
  report_metric("pool.chunked_job_us", probe(sp, root, "pool.chunked", 200, [&] {
                                         dc::parallel_for_chunked(0, v.size(), body);
                                       }) / 1e3);
  report_metric("pool.affine_job_us", probe(sp, root, "pool.affine", 200, [&] {
                                        dc::parallel_for_affine(0, v.size(),
                                                                sizeof(u64), body);
                                      }) / 1e3);
  report_metric("pool.inline_job_us", probe(sp, root, "pool.inline", 200, [&] {
                                        body(0, v.size());
                                        keep(v.data());
                                      }) / 1e3);
}

/// The sharded engine at the workload's order: out of core under the
/// workload budget (N/4 x 32 B), then in core. Peak RSS is read between
/// the two, so it covers only the out-of-core engine. On flat workloads
/// this describes the idle shard layer at the op's size.
void shard_group(const ChildArgs& a, Spans& sp, std::uint32_t root) {
  const Workload& w = *a.workload;
  const unsigned shards = w.kind == Kind::kSharded ? w.shards : 2;
  const int calls = w.kind == Kind::kSharded ? static_cast<int>(w.trace_ops) : 30;
  u64 index = a.first_op;
  ShardedOp ooc(w.order, shards, ShardedOp::ooc_budget(w.order), a.seed);
  step(ooc, index, /*cold=*/true);
  const double ooc_ms = op_probe(sp, root, "shard.ooc_run", ooc, index, calls, [] {});
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const double predicted =
      static_cast<double>(ooc.engine().predicted_resident_bytes(sizeof(u64)));

  ShardedOp incore(w.order, shards, 0, a.seed);
  step(incore, index, /*cold=*/true);
  const double in_ms = op_probe(sp, root, "shard.incore_run", incore, index, calls, [] {});
  report_metric("shard.incore_run_ms", in_ms);
  report_metric("shard.ooc_share", 1.0 - in_ms / ooc_ms);
  report_metric("shard.predicted_resident_mb", predicted / (1 << 20));
  report_metric("shard.rss_over_predicted",
                static_cast<double>(ru.ru_maxrss) * 1024.0 / predicted);
}

/// Alternating chunked / affine jobs over 32,768 indices, capped at 100k
/// jobs: the standing repro of the multi-worker pool stall. Progress goes
/// to the parent after every job; a stall leaves the last count standing.
void stall_group() {
  constexpr u64 kCap = 100000;
  std::vector<u64> v(32768);
  const auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) v[i] += 1;
  };
  u64 jobs = 0;
  for (; jobs < kCap; ++jobs) {
    if (jobs % 2 == 0) {
      dc::parallel_for_chunked(0, v.size(), body);
    } else {
      dc::parallel_for_affine(0, v.size(), sizeof(u64), body);
    }
    report("P %llu", ull{jobs + 1});
  }
  report_metric("pool.alt_jobs_to_stall", static_cast<double>(jobs));
}

int trace_child(const ChildArgs& a) {
  hello();
  Spans sp;
  const std::uint32_t root = sp.begin(a.group, 0);
  if (a.group == "ops") {
    ops_group(a, sp, root);
  } else if (a.group == "layers") {
    layers_group(a, sp, root);
  } else if (a.group == "cold") {
    cold_group(a, sp, root);
  } else if (a.group == "pool") {
    pool_group(a, sp, root);
  } else if (a.group == "shard") {
    shard_group(a, sp, root);
  } else if (a.group == "stall") {
    stall_group();
  } else {
    throw std::runtime_error("unknown trace group " + a.group);
  }
  sp.end(root);
  sp.flush();
  report("E");
  return 0;
}

}  // namespace

int child_main(const ChildArgs& a, std::uint64_t t_main) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the parent
  if (::getppid() == 1) return 1;
  const rlimit no_core{0, 0};
  ::setrlimit(RLIMIT_CORE, &no_core);  // injected crashes leave no core file
  try {
    return a.mode == "trace" ? trace_child(a) : op_child(a, t_main);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcbench: %s child failed: %s\n", a.mode.c_str(),
                 e.what());
    return 3;
  }
}

}  // namespace dcbench
