// Synchronous message-passing machine.
//
// One Machine simulates a multicomputer whose processors are the vertices of
// a Topology and whose links are its edges, executing SPMD algorithms as a
// sequence of synchronous steps:
//
//   * comm_cycle<P>(plan)  — every node may submit at most one outgoing
//     message (1-port); the machine validates that each message travels
//     along a real link and that no node receives more than one message,
//     then delivers all messages simultaneously and bumps T_comm.
//   * compute_step(f)      — every node performs O(1) local work; bumps
//     T_comp.
//   * for_each_node(f)     — uncounted local bookkeeping (initialization,
//     result copy-out). Never use this to hide real work: tests assert the
//     counted totals against the paper's formulas.
//
// Violating the port or link discipline throws SimError, so the test suite
// can prove the algorithms really fit the paper's model rather than just
// trusting the step arithmetic.
//
// Node state lives in plain std::vector arrays owned by the algorithms
// (index = node label); the machine owns only the topology reference, the
// counters, and reusable per-payload-type communication scratch (see
// sim/arena.hpp). One cycle is two parallel passes:
//
//   1. plan  — clears each node's inbox slot and records its (at most one)
//      outgoing message into the persistent outbox; the 1-send rule is
//      enforced by the callback signature.
//   2. deliver — validates every message against the topology's CSR
//      adjacency snapshot (no virtual dispatch, no allocation) and claims
//      the destination's receive port by compare-exchanging its generation
//      stamp; since at most one message may land per node, winners write
//      their payload slot exclusively.
//
// Both passes run chunked over the worker pool; all writes go to disjoint
// slots, so results are identical to the old sequential delivery. If any
// worker flags a violation, the machine re-scans the outbox sequentially in
// sender order and throws the exact error the sequential path would have
// thrown (lowest sender wins), keeping SimError reporting deterministic.
//
// Because every algorithm here is communication-oblivious, the machine also
// offers a compiled replay path: comm_cycle_scheduled_blocks executes a
// cycle that was recorded and validated once (sim/schedule.hpp) as a single
// pass into a block plane, with no planning, validation, or port claiming —
// block copies of aligned runs for a cycle in the compact XOR-mask form, a
// gather through recv_from for a dense one. It is the one replay kernel:
// scalar payloads travel as width-1 blocks. An exchange step that one
// computation step consumes at once may instead run as
// comm_compute_cycle_fused_blocks, one sweep of the algorithm's own that
// stands in for the step's k compiled cycles and books each of them.
// Algorithms select between the paths through ObliviousSection
// (sim/oblivious.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/counters.hpp"
#include "sim/error.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/profile.hpp"
#include "sim/schedule.hpp"
#include "sim/simd.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "topology/flat_adjacency.hpp"
#include "topology/topology.hpp"

namespace dc::sim {

class ProxyScope;  // sim/fault_transport.hpp

class Machine {
 public:
  /// `validate`: check link existence per message (O(log degree) against
  /// the CSR adjacency snapshot). Port discipline is always enforced.
  explicit Machine(const net::Topology& topo, bool validate = true)
      : topo_(topo),
        validate_(validate),
        pool_(&ThreadPool::shared()),
        ops_cells_(pool_->size() + 1) {
    // Metric targets are resolved once, here, and only when the registry
    // was armed before construction — an unarmed process pays exactly one
    // null test per cycle and allocates nothing for metrics.
    if (MetricsRegistry::armed()) {
      auto& reg = MetricsRegistry::instance();
      metric_msgs_per_cycle_ = &reg.histogram("sim.messages_per_cycle",
                                              Histogram::pow2_bounds(24));
      metric_fault_drops_ = &reg.counter("sim.fault.drops");
    }
  }

  const net::Topology& topology() const { return topo_; }
  net::NodeId node_count() const { return topo_.node_count(); }
  bool validating() const { return validate_; }

  /// Path the oblivious algorithms take (see sim/oblivious.hpp). Defaults
  /// to compiled replay; set DC_SCHEDULE=interpreted to flip the process
  /// default, or call set_schedule_path per machine. A machine with
  /// attached faults always reports kInterpreted: a compiled schedule
  /// captures the healthy pattern, and replaying it would skip the
  /// per-message fault checks (and record runs under faults could observe
  /// fault-dependent plans), so fault runs interpret every cycle.
  SchedulePath schedule_path() const {
    return has_faults() ? SchedulePath::kInterpreted : schedule_path_;
  }
  void set_schedule_path(SchedulePath p) { schedule_path_ = p; }

  /// Attaches a fault timeline (sim/faults.hpp), replacing any earlier
  /// attachment; a static FaultPlan attaches as FaultTimeline(plan). Every
  /// subsequent comm_cycle checks each planned message against the faults
  /// live at its own cycle index, so links flap and nodes die and rejoin
  /// mid-run: under kStrict any touch of a dead node or link throws
  /// FaultError; under kDegrade the message is dropped and counted in
  /// Counters::messages_lost. Transient drops apply under both policies.
  /// The machine traces every epoch transition it crosses ("fault_epoch")
  /// and every node rejoin it passes ("fault_rejoin"), and counts both
  /// (fault_epochs_seen / fault_rejoins). Attach before running an
  /// algorithm — never between the cycles of one run. With nothing
  /// attached the comm path is untouched.
  void attach_faults(std::shared_ptr<const FaultTimeline> timeline,
                     FaultPolicy policy = FaultPolicy::kStrict) {
    timeline_ = std::move(timeline);
    fault_policy_ = policy;
    epoch_seen_ = false;
  }
  /// Changes the attached faults' policy between cycles, keeping the epoch
  /// bookkeeping: the next cycle counts no epoch it has already counted.
  void set_fault_policy(FaultPolicy policy) { fault_policy_ = policy; }
  void clear_faults() { timeline_.reset(); }
  const FaultTimeline* fault_timeline() const { return timeline_.get(); }
  bool has_faults() const { return timeline_ != nullptr; }
  FaultPolicy fault_policy() const { return fault_policy_; }

  /// Distinct timeline epochs this machine's cycles have crossed into, and
  /// node rejoin events they have advanced past. Zero without attached
  /// faults; monotone across clear_faults (totals for the machine).
  std::uint64_t fault_epochs_seen() const { return fault_epochs_seen_; }
  std::uint64_t fault_rejoins() const { return fault_rejoins_; }

  /// Credits `k` messages carried on fault-detour routes (multi-hop
  /// repairs, proxy-redirected exchanges). Called by the fault-tolerant
  /// collectives; the machine itself cannot tell a detour hop from any
  /// other message.
  void note_rerouted(std::uint64_t k) { counters_.messages_rerouted += k; }

  /// Number of comm cycles this machine executed through the compiled
  /// replay path (comm_cycle_scheduled_blocks, plus the fused cycles that
  /// stand in for compiled ones). Zero on a machine that only ever
  /// interpreted or recorded.
  std::uint64_t replayed_cycles() const { return replayed_cycles_; }

  /// Attaches a per-cycle imbalance profiler (sim/profile.hpp): every comm
  /// cycle — interpreted, replayed or fused — feeds one
  /// deterministic band-stat sample into it from the driver thread. The
  /// profiler must outlive the machine's cycles; pass nullptr to detach.
  /// Costs one O(n) receiver scan per cycle while attached, nothing when
  /// detached (dcsim turns it on with --profile).
  void attach_profiler(CycleProfiler* profiler) { profiler_ = profiler; }
  CycleProfiler* profiler() const { return profiler_; }

  /// The proxy-emulation scope open on this machine (sim/fault_transport.hpp)
  /// or nullptr. While one is open, ObliviousSection exchanges take the
  /// proxy path; the scope sets and clears this itself.
  ProxyScope* proxy_scope() const { return proxy_scope_; }
  void set_proxy_scope(ProxyScope* scope) { proxy_scope_ = scope; }

  /// Run parallel steps on `pool` instead of the shared pool. Call before
  /// the first cycle / before enable_edge_load.
  void set_thread_pool(ThreadPool* pool) {
    DC_REQUIRE(!edge_load_.enabled(),
               "set_thread_pool must precede enable_edge_load");
    pool_ = pool ? pool : &ThreadPool::shared();
    ops_cells_.resize(std::max(ops_cells_.size(), pool_->size() + 1));
  }
  /// Minimum range size dispatched to the pool (0 = library default).
  /// Lets tests drive the concurrent delivery path on small topologies.
  void set_parallel_grain(std::size_t grain) { grain_ = grain; }

  /// Snapshot of the step counters. Call between steps (not from inside a
  /// step callback).
  Counters counters() const {
    Counters c = counters_;
    c.ops = 0;
    for (const OpsCell& cell : ops_cells_) c.ops += cell.v;
    return c;
  }
  void reset_counters() {
    counters_ = Counters{};
    for (OpsCell& cell : ops_cells_) cell.v = 0;
  }

  /// Record `k` binary-op applications (prefix ⊕ or sort compares) without
  /// advancing any step counter; compute_step advances T_comp. Callable from
  /// inside step callbacks: each worker accumulates into its own padded
  /// cell, so the hot path is a plain add — no atomic contention.
  void add_ops(std::uint64_t k) { ops_cells_[pool().worker_slot()].v += k; }

  /// One synchronous communication cycle carrying payloads of type P.
  ///
  /// `plan(u)` -> std::optional<Send<P>>; at most one outgoing message per
  /// node per cycle (enforced by the signature). Returns the inbox: for
  /// each node, the payload it received this cycle, if any. Steady-state
  /// cycles (after the first cycle per payload type) perform zero heap
  /// allocations, with tracing and metrics enabled or disabled.
  template <typename P, typename Plan>
  Inbox<P> comm_cycle(Plan&& plan) {
    const std::size_t n = static_cast<std::size_t>(node_count());
    CycleSpan span(trace_, trace_track_, "comm_cycle");
    auto& sends = arena_.get<detail::Outbox<P>>(n)->sends;
    auto buf = arena_.acquire<detail::InboxBuffer<P>>(n);

    std::optional<Send<P>>* const outbox = sends.data();
    std::optional<P>* const slots = buf->slots.data();
    std::atomic<std::uint64_t>* const claims = buf->claims.get();
    const std::uint64_t gen = buf->generation;

    // Pass 1 (fused): clear this cycle's inbox slots and plan every node's
    // outgoing message.
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t u = lo; u < hi; ++u) {
            slots[u].reset();
            outbox[u] = plan(static_cast<net::NodeId>(u));
          }
        },
        grain_, pool_);

    // Fault filter: only with faults attached does any message get a fault
    // check; the healthy path is untouched. Runs sequentially, in ascending
    // sender order (so strict-mode errors are deterministic), between
    // planning and delivery, so a dropped message is simply absent from the
    // delivery pass below.
    if (timeline_) {
      const std::uint64_t cyc = begin_fault_cycle();
      for (std::size_t u = 0; u < n; ++u)
        if (outbox[u] && fault_drops(u, outbox[u]->to, cyc)) outbox[u].reset();
    }

    const net::FlatAdjacency* adj = nullptr;
    if (validate_ || edge_load_.enabled()) adj = &adjacency();

    // Pass 2: validate, claim receive ports, deliver. Violations only set a
    // flag here; the deterministic error is produced by the sequential
    // re-scan below. When the pass runs inline on one thread, port claims
    // use plain stamp writes; compare-exchange is only paid when the range
    // actually fans out to workers.
    const bool concurrent = parallel_will_dispatch(n, grain_, pool_);
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<bool> violation{false};
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          std::uint64_t local = 0;
          std::uint64_t* const loads =
              edge_load_.enabled() ? edge_load_.row(pool().worker_slot())
                                   : nullptr;
          for (std::size_t u = lo; u < hi; ++u) {
            auto& out = outbox[u];
            if (!out) continue;
            const net::NodeId to = out->to;
            if (to >= n) {
              violation.store(true, std::memory_order_relaxed);
              continue;
            }
            std::size_t slot = net::FlatAdjacency::npos;
            if (adj) {
              slot = adj->edge_slot(static_cast<net::NodeId>(u), to);
              if (validate_ && slot == net::FlatAdjacency::npos) {
                violation.store(true, std::memory_order_relaxed);
                continue;
              }
            }
            // Claim the destination's receive port for this generation.
            std::uint64_t seen = claims[to].load(std::memory_order_relaxed);
            if (concurrent) {
              bool won = false;
              while (seen != gen) {
                if (claims[to].compare_exchange_weak(
                        seen, gen, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                  won = true;
                  break;
                }
              }
              if (!won) {  // two messages converged on one receiver
                violation.store(true, std::memory_order_relaxed);
                continue;
              }
            } else {
              if (seen == gen) {  // this port was already claimed this cycle
                violation.store(true, std::memory_order_relaxed);
                continue;
              }
              claims[to].store(gen, std::memory_order_relaxed);
            }
            if (loads) {
              if (slot != net::FlatAdjacency::npos) {
                ++loads[slot];
              } else {
                edge_load_.add_off_csr(static_cast<net::NodeId>(u) * n + to);
              }
            }
            slots[to] = std::move(out->payload);
            ++local;
          }
          if (local) delivered.fetch_add(local, std::memory_order_relaxed);
        },
        grain_, pool_);

    if (violation.load(std::memory_order_relaxed)) {
      throw_first_violation(sends);
    }

    if (profiler_ != nullptr) {
      profiler_->note_cycle_mask(
          n, [&](std::size_t v) { return slots[v].has_value(); });
    }
    ++counters_.comm_cycles;
    const std::uint64_t count = delivered.load(std::memory_order_relaxed);
    counters_.messages += count;
    span.finish(count);
    if (metric_msgs_per_cycle_) metric_msgs_per_cycle_->observe(count);
    return Inbox<P>(std::move(buf));
  }

  /// Replays one compiled communication cycle (see sim/schedule.hpp) whose
  /// every message is a fixed-width block of T (scalars are width 1),
  /// through a structure-of-arrays plane: one chunked receiver-major sweep
  /// with no planning lambdas, no adjacency lookups and no claim CAS — the
  /// record run already validated link existence and the 1-port rule.
  /// `src` is a PlaneSrc descriptor or a callback `src(u, dst)` that writes
  /// exactly `width` elements of node u's outgoing block into dst and only
  /// reads state, like a plan callback; either is read exactly once per
  /// delivered message.
  ///
  /// A compact cycle needs no per-receiver array: its receivers come in
  /// aligned runs of XorForm::run_rows() rows, each fed by an aligned run
  /// of senders in order, so a tail-free packed PlaneSrc copies each run
  /// as one block (the prefix's cross-edge cycle is two half-plane
  /// copies), and a width-1 odd mask, whose runs are single rows, computes
  /// each sender inline. A dense cycle gathers receiver row v from its
  /// sender recv_from[v]; a tail-free PlaneSrc runs that sweep through
  /// simd::gather_rows (an AVX2 masked gather at width 1,
  /// width-specialized block copies otherwise).
  ///
  /// Counter, trace and edge-load semantics are identical to comm_cycle.
  /// With edge-load accounting on, every delivery is booked on its CSR
  /// slot: a dense cycle's was resolved at record time, a compact cycle's
  /// is looked up (book_edge). A machine with faults attached refuses to
  /// replay. Steady-state replays at a given width perform zero heap
  /// allocations (the plane is pooled and kept at its high-water size),
  /// with tracing and metrics enabled or disabled.
  template <typename T, typename Src>
  BlockInbox<T> comm_cycle_scheduled_blocks(const ScheduleCycle& cyc,
                                            std::size_t width, Src&& src) {
    const std::size_t n = static_cast<std::size_t>(node_count());
    DC_REQUIRE(!has_faults(),
               "compiled replay skips per-message fault checks; a machine "
               "with attached faults must interpret every cycle");
    DC_REQUIRE(cyc.node_count() == n,
               "schedule cycle was compiled for a different node count");
    require_block_source<T>(width, src);
    CycleSpan span(trace_, trace_track_, "comm_cycle_replay_blocks");
    auto buf = arena_.acquire<BlockBuffer<T>>(n);
    buf->set_width(n, width);

    const bool loads_on = edge_load_.enabled();
    const XorForm* const form = cyc.xor_form ? &*cyc.xor_form : nullptr;
    const std::size_t run = form ? form->run_rows(n) : 1;
    parallel_for_affine(
        0, n, width * sizeof(T),
        [&](std::size_t lo, std::size_t hi) {
          // Everything the row loop reads is a local, not a captured
          // reference: the plane and stamp stores could otherwise alias it
          // and force reloads on every row.
          T* const plane = buf->values.data();
          std::uint64_t* const stamp = buf->stamp.get();
          const std::uint64_t gen = buf->generation;
          const std::size_t w = width;
          std::uint64_t* const loads =
              loads_on ? edge_load_.row(pool().worker_slot()) : nullptr;
          if (form) {
            const XorForm f = *form;
            for (std::size_t v = lo; v < hi;) {
              const std::size_t end = std::min(hi, (v | (run - 1)) + 1);
              if (f.receives(v)) {
                const net::NodeId u = f.sender_of(v);
                copy_rows<T>(src, u, plane + v * w, w, end - v);
                std::fill(stamp + v, stamp + end, gen);
                for (std::size_t i = 0; loads && i < end - v; ++i)
                  book_edge(loads, kNoEdgeSlot, u + i, v + i, n);
              }
              v = end;
            }
            return;
          }
          const net::NodeId* const from = cyc.recv_from.data();
          const std::uint32_t* const edge = cyc.recv_slot.data();
          if constexpr (kIsPlaneSrc<T, Src>) {
            if (!loads && !src.tail) {
              simd::gather_rows(plane, stamp, gen, from, kNoSender, lo, hi,
                                w, src.base, src.stride);
              return;
            }
          }
          for (std::size_t v = lo; v < hi; ++v) {
            const net::NodeId u = from[v];
            if (u == kNoSender) continue;
            copy_row<T>(src, u, plane + v * w, w);
            stamp[v] = gen;
            if (loads) book_edge(loads, edge[v], u, v, n);
          }
        },
        grain_, pool_);

    if (profiler_ != nullptr) profiler_->note_cycle(cyc, n);
    ++counters_.comm_cycles;
    counters_.messages += cyc.message_count;
    ++replayed_cycles_;
    span.finish(cyc.message_count);
    if (metric_msgs_per_cycle_)
      metric_msgs_per_cycle_->observe(cyc.message_count);
    return BlockInbox<T>(std::move(buf));
  }

  /// Fused exchange-and-combine step over `blocks` equal node blocks:
  /// body(b_lo, b_hi) performs, for blocks [b_lo, b_hi), both the data
  /// movement of the cycles the step stands in for and the dependent
  /// per-node combine in one sweep — no comm plane is materialized at all,
  /// so the step costs one pass over node state instead of a gather per
  /// cycle plus a compute step. The body must touch only state owned by
  /// its blocks (exchanges must stay block-internal), and must charge
  /// add_ops for the combines it applies. Block ranges run inline up to
  /// the same node threshold as every other loop here.
  ///
  /// `cycles` are the compiled cycles the sweep stands in for
  /// (ObliviousSection::exchange_compute_fused): one for a Cube_prefix
  /// exchange, three for a relayed dimension step. Each is booked exactly
  /// as its replay would be — its message count, edge loads for the rows
  /// it delivers (read from the cycle's senders and slots through the
  /// ScheduleCycle accessors), a profiler sample, a replayed_cycles() tick
  /// and one comm_cycle_fused span — and then one computation step is
  /// booked. With none (the sharded engine) the sweep
  /// books one cycle delivering one message per node; there are no edge
  /// slots to book, so edge-load accounting must be off.
  template <typename Body>
  void comm_compute_cycle_fused_blocks(
      std::size_t blocks, Body&& body,
      std::span<const ScheduleCycle> cycles = {}) {
    const std::size_t n = static_cast<std::size_t>(node_count());
    DC_REQUIRE(!has_faults(),
               "fused cycles skip per-message fault checks; a machine with "
               "attached faults must interpret every cycle");
    for (const ScheduleCycle& cyc : cycles) {
      DC_REQUIRE(cyc.node_count() == n,
                 "schedule cycle was compiled for a different node count");
    }
    DC_REQUIRE(!cycles.empty() || !edge_load_.enabled(),
               "fused cycles carry no edge slots; interpret cycles when "
               "edge-load accounting is enabled");
    DC_REQUIRE(blocks >= 1 && n % blocks == 0,
               "fused blocks do not evenly cover the node count");
    const std::size_t block = n / blocks;
    const std::size_t node_grain = grain_ ? grain_ : kParallelInlineThreshold;
    for (std::size_t c = 0; c < std::max<std::size_t>(cycles.size(), 1);
         ++c) {
      CycleSpan span(trace_, trace_track_, "comm_cycle_fused");
      if (c == 0) {  // the sweep runs inside the first cycle's span
        parallel_for_chunked(0, blocks, body,
                             std::max<std::size_t>(1, node_grain / block),
                             pool_);
      }
      std::uint64_t messages = n;
      if (cycles.empty()) {
        if (profiler_ != nullptr) profiler_->note_cycle_uniform(n);
      } else {
        const ScheduleCycle& cyc = cycles[c];
        if (edge_load_.enabled()) {
          std::uint64_t* const loads = edge_load_.row(pool().worker_slot());
          for (std::size_t v = 0; v < n; ++v) {
            const net::NodeId u = cyc.sender(v);
            if (u != kNoSender) book_edge(loads, cyc.edge_slot(v), u, v, n);
          }
        }
        if (profiler_ != nullptr) profiler_->note_cycle(cyc, n);
        ++replayed_cycles_;
        messages = cyc.message_count;
      }
      ++counters_.comm_cycles;
      counters_.messages += messages;
      span.finish(messages);
      if (metric_msgs_per_cycle_) metric_msgs_per_cycle_->observe(messages);
    }
    ++counters_.comp_steps;
    if (trace_) trace_->instant(trace_track_, 0, "compute_step");
  }

  /// Packs an interpreted or proxied block exchange into a block plane.
  /// ObliviousSection::exchange_blocks runs the cycle through comm_cycle
  /// (full validation, faults, SimError reporting) or one detour batch,
  /// with each sender shipping its own id; this uncounted copy then fills
  /// receiver row v from the source row of the node that reached it
  /// (`senders[v]`, one per node) — the rows replay copies from each
  /// compiled cycle's senders, read through the same `src`. Steady-state
  /// packs perform zero heap allocations.
  template <typename T, typename Src>
  BlockInbox<T> pack_blocks(std::size_t width,
                            const std::optional<net::NodeId>* senders,
                            Src&& src) {
    const std::size_t n = static_cast<std::size_t>(node_count());
    require_block_source<T>(width, src);
    auto buf = arena_.acquire<BlockBuffer<T>>(n);
    buf->set_width(n, width);
    T* const plane = buf->values.data();
    std::uint64_t* const stamp = buf->stamp.get();
    const std::uint64_t gen = buf->generation;
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t v = lo; v < hi; ++v) {
            const auto& from = senders[v];
            if (!from) continue;
            copy_row<T>(src, *from, plane + v * width, width);
            stamp[v] = gen;
          }
        },
        grain_, pool_);
    return BlockInbox<T>(std::move(buf));
  }

  /// One parallel computation step: f(u) for every node. f must only write
  /// state owned by node u.
  template <typename F>
  void compute_step(F&& f) {
    parallel_for_chunked(
        0, static_cast<std::size_t>(node_count()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t u = lo; u < hi; ++u) f(static_cast<net::NodeId>(u));
        },
        grain_, pool_);
    ++counters_.comp_steps;
    if (trace_) trace_->instant(trace_track_, 0, "compute_step");
  }

  /// Chunked form of compute_step: body(lo, hi) must perform exactly the
  /// per-node O(1) work of nodes (or per-node data indices) [lo, hi) —
  /// nothing more, nothing less — and is invoked over disjoint ranges
  /// covering [0, node_count). Counted as ONE computation step, exactly
  /// like compute_step; use it when the per-node work is a contiguous
  /// array operation that a kernel can sweep across the whole range
  /// (core/block_prefix.hpp's row combines). Charge add_ops(hi - lo) per
  /// range to keep op totals identical to the per-node form.
  template <typename Body>
  void compute_step_chunked(Body&& body) {
    parallel_for_chunked(0, static_cast<std::size_t>(node_count()),
                         std::forward<Body>(body), grain_, pool_);
    ++counters_.comp_steps;
    if (trace_) trace_->instant(trace_track_, 0, "compute_step");
  }

  /// Streamed form of compute_step: body(0, node_count) is invoked exactly
  /// once, on one pool worker, and must perform the per-node O(1) work of
  /// every node itself. Used by out-of-core passes whose node state lives
  /// in a spill file and streams through one caller-managed window —
  /// concurrent chunks would race on that window buffer. Counted as ONE
  /// computation step; charge add_ops exactly like the per-node form.
  template <typename Body>
  void compute_step_streamed(Body&& body) {
    const std::size_t n = static_cast<std::size_t>(node_count());
    parallel_for_chunked(
        0, std::size_t{1},
        [&](std::size_t, std::size_t) { body(std::size_t{0}, n); }, 1, pool_);
    ++counters_.comp_steps;
    if (trace_) trace_->instant(trace_track_, 0, "compute_step");
  }

  /// Uncounted per-node bookkeeping (initialization, copy-out).
  template <typename F>
  void for_each_node(F&& f) {
    parallel_for_chunked(
        0, static_cast<std::size_t>(node_count()),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t u = lo; u < hi; ++u) f(static_cast<net::NodeId>(u));
        },
        grain_, pool_);
  }

  /// Attaches an external trace recorder (sim/trace.hpp) and registers a
  /// timeline track labelled `label` for this machine. Several machines may
  /// share one recorder (dcsim puts warm-up and measured runs on separate
  /// tracks of one timeline). Pass nullptr to detach. All ring memory was
  /// allocated when the recorder was built, so enabling tracing adds two
  /// ring stores per comm cycle and no allocations.
  void set_trace(TraceRecorder* rec, std::string label = "machine") {
    trace_ = rec;
    trace_track_ = trace_ ? trace_->register_track(std::move(label)) : 0;
  }

  /// Compatibility switch: enables tracing into a machine-owned recorder
  /// (allocated here, once). Prefer set_trace to share a recorder.
  void enable_trace() {
    if (trace_) return;
    owned_trace_ =
        std::make_unique<TraceRecorder>(pool().size() + 1);
    set_trace(owned_trace_.get(), topo_.name());
  }

  /// The attached recorder (null when tracing is off) and this machine's
  /// track id on it. Pass to TraceScope to add phase spans around
  /// algorithm sections.
  TraceRecorder* trace() const { return trace_; }
  std::uint32_t trace_track() const { return trace_track_; }

  /// Compatibility query: delivered-message count of every traced comm
  /// cycle, in cycle order (backed by the recorder's kCycleEnd events).
  /// Empty when tracing was never enabled; complete while the caller ring
  /// has not wrapped (TraceRecorder::dropped() == 0).
  std::vector<std::uint64_t> messages_per_cycle() const {
    if (!trace_) return {};
    return trace_->messages_per_cycle(trace_track_);
  }

  /// Enable per-directed-edge message counting (hot-spot analysis). All
  /// counter memory is allocated here so counting itself stays
  /// allocation-free.
  void enable_edge_load() {
    if (edge_load_.enabled()) return;
    edge_load_.init(pool().size() + 1, adjacency().directed_edge_count());
  }
  bool edge_load_enabled() const { return edge_load_.enabled(); }
  /// Messages carried by the directed edge u -> v over the whole run.
  /// Counts are unspecified for a cycle that threw SimError.
  std::uint64_t edge_load(net::NodeId u, net::NodeId v) const {
    if (!edge_load_.enabled() || u >= node_count() || v >= node_count()) {
      return 0;
    }
    const std::size_t slot = adj_->edge_slot(u, v);
    std::uint64_t total =
        slot == net::FlatAdjacency::npos ? 0 : edge_load_.slot_total(slot);
    total += edge_load_.off_csr(u * node_count() + v);
    return total;
  }

  /// Merged per-edge totals for the whole run, indexed by CSR edge slot
  /// (row-major over FlatAdjacency rows). One O(workers * edges) pass —
  /// use this instead of looping edge_load() over every edge.
  std::vector<std::uint64_t> edge_load_merged() const {
    return edge_load_.merged();
  }

  /// Publishes this machine's end-of-run gauges into the armed metrics
  /// registry: final step counters, fault totals, merged edge-load
  /// imbalance (max/mean), pooled comm-scratch high water, and trace
  /// volume. No-op when the registry is unarmed. Call between runs, then
  /// render with metrics_report(). A publish is a run boundary: every
  /// per-run gauge family is cleared first, so gauges another run wrote
  /// (sim.shard.*, another machine's sim.edge_load.*) never survive into
  /// this run's report stale.
  void publish_metrics() const {
    if (!MetricsRegistry::armed()) return;
    auto& reg = MetricsRegistry::instance();
    clear_per_run_gauges(reg);
    const Counters c = counters();
    reg.set_gauge("sim.comm_cycles", static_cast<double>(c.comm_cycles));
    reg.set_gauge("sim.comp_steps", static_cast<double>(c.comp_steps));
    reg.set_gauge("sim.messages", static_cast<double>(c.messages));
    reg.set_gauge("sim.replayed_cycles",
                  static_cast<double>(replayed_cycles_));
    reg.set_gauge("sim.fault.messages_lost",
                  static_cast<double>(c.messages_lost));
    reg.set_gauge("sim.fault.messages_rerouted",
                  static_cast<double>(c.messages_rerouted));
    reg.set_gauge("sim.fault.cycles", static_cast<double>(c.fault_cycles));
    reg.set_gauge("sim.fault.epochs",
                  static_cast<double>(fault_epochs_seen_));
    reg.set_gauge("sim.fault.rejoins", static_cast<double>(fault_rejoins_));
    if (edge_load_.enabled()) {
      const std::vector<std::uint64_t> loads = edge_load_.merged();
      std::uint64_t max = 0;
      std::uint64_t sum = 0;
      for (const std::uint64_t v : loads) {
        max = std::max(max, v);
        sum += v;
      }
      const double mean =
          loads.empty() ? 0.0
                        : static_cast<double>(sum) /
                              static_cast<double>(loads.size());
      reg.set_gauge("sim.edge_load.max", static_cast<double>(max));
      reg.set_gauge("sim.edge_load.mean", mean);
      reg.set_gauge("sim.edge_load.imbalance",
                    mean > 0.0 ? static_cast<double>(max) / mean : 0.0);
    }
    reg.set_gauge("sim.comm_pool.high_water_bytes",
                  static_cast<double>(arena_.resident_bytes()));
    // Chunks executed off their home band across this machine's pool: zero
    // means every affine replay range stayed on its cache-home thread.
    reg.set_gauge("sim.chunk.affinity_moves",
                  static_cast<double>(pool_->affinity_steals()));
    if (trace_) {
      reg.set_gauge("sim.trace.events",
                    static_cast<double>(trace_->emitted()));
      reg.set_gauge("sim.trace.dropped",
                    static_cast<double>(trace_->dropped()));
    }
  }

  /// Bytes of pooled communication scratch (inbox buffers and block
  /// planes) currently resident in this machine's arena.
  std::size_t comm_pool_resident_bytes() const {
    return arena_.resident_bytes();
  }

  /// Releases every idle pooled communication buffer. The sharded engine's
  /// out-of-core mode calls this after each shard pass so only one shard's
  /// planes are ever resident; the next cycle re-acquires fresh buffers, so
  /// zero-steady-state-allocation guarantees do not hold across a trim.
  void trim_comm_pool() { arena_.trim(); }

 private:
  // pool_ is always non-null (the constructor resolves the shared pool
  // once), so per-node hot paths like add_ops skip the static-local guard
  // inside ThreadPool::shared().
  ThreadPool& pool() const { return *pool_; }

  /// Shape checks shared by block replay and block packing.
  template <typename T, typename Src>
  static void require_block_source(std::size_t width, const Src& src) {
    DC_REQUIRE(width >= 1, "block width must be >= 1");
    if constexpr (kIsPlaneSrc<T, Src>) {
      DC_REQUIRE(!src.tail || src.head <= width,
                 "plane source head exceeds the block width");
    }
  }

  /// Books one compiled delivery u -> v into a per-worker edge-load row:
  /// a plain indexed add on its record-time CSR slot. kNoEdgeSlot (a
  /// compact cycle, which stores no slots, or a dense hop recorded with
  /// validation off that is no edge) is resolved from the CSR here, so a
  /// validated hop books its edge and a non-edge books the off-CSR map on
  /// either form. Any other slot past the row — a schedule file whose
  /// recv_slot lies — books off-CSR, so it never writes past the row.
  void book_edge(std::uint64_t* loads, std::uint32_t slot, net::NodeId u,
                 std::size_t v, std::size_t n) {
    const std::size_t at =
        slot == kNoEdgeSlot
            ? adj_->edge_slot(u, static_cast<net::NodeId>(v))
            : slot;
    if (at < adj_->directed_edge_count()) {
      ++loads[at];
    } else {
      edge_load_.add_off_csr(u * n + v);
    }
  }

  /// CSR adjacency snapshot, fetched from the topology's cache on first
  /// use.
  const net::FlatAdjacency& adjacency() const {
    if (!adj_) adj_ = &topo_.flat_adjacency();
    return *adj_;
  }

  /// Opens one filtered cycle and returns its index. First the epoch
  /// bookkeeping: when the cycle lands in a different epoch than the last
  /// filtered cycle (or is the first since the attach), trace a
  /// "fault_epoch" instant; every node_up event strictly after the previous
  /// filtered cycle and at or before this one gets a "fault_rejoin"
  /// instant. Then, if any fault is live, the cycle counts as a fault
  /// cycle. Cheap (ordered-set lookups) and fully deterministic — cycle
  /// indices, not wall clock.
  std::uint64_t begin_fault_cycle() {
    const FaultTimeline& tl = *timeline_;
    const std::uint64_t cyc = counters_.comm_cycles;
    const std::size_t epoch = tl.epoch_of(cyc);
    // A node_up cycle is always >= 1, so the cyc == 0 underflow below
    // yields the empty interval it should.
    const std::uint64_t after = epoch_seen_ ? last_fault_cycle_ : cyc - 1;
    if (after < cyc) {
      for (const net::NodeId u : tl.rejoins_between(after, cyc)) {
        ++fault_rejoins_;
        if (trace_) {
          trace_->instant(trace_track_, 0, "fault_rejoin", "node", u, "cycle",
                          cyc);
        }
      }
    }
    if (!epoch_seen_ || epoch != current_epoch_) {
      ++fault_epochs_seen_;
      if (trace_) {
        trace_->instant(trace_track_, 0, "fault_epoch", "epoch", epoch,
                        "cycle", cyc);
      }
      current_epoch_ = epoch;
      epoch_seen_ = true;
    }
    last_fault_cycle_ = cyc;
    if (tl.any_active(cyc)) {
      ++counters_.fault_cycles;
      if (trace_) trace_->instant(trace_track_, 0, "fault_cycle", "cycle", cyc);
    }
    return cyc;
  }

  /// Filters one planned message u -> `to` against the faults live at
  /// cycle `cyc`; returns true iff it is dropped. Under kStrict a message
  /// touching a dead node or link throws FaultError; under kDegrade it is
  /// dropped and counted as lost. Transient drops are dropped and counted
  /// under both policies.
  bool fault_drops(std::size_t u, net::NodeId to, std::uint64_t cyc) {
    const FaultTimeline& tl = *timeline_;
    const net::NodeId from = static_cast<net::NodeId>(u);
    const bool to_ok = to < node_count();
    std::string error;
    if (tl.node_dead(from, cyc)) {
      error = "faulty node " + std::to_string(u) + " cannot send (cycle " +
              std::to_string(cyc) + ")";
    } else if (to_ok && tl.node_dead(to, cyc)) {
      error = "node " + std::to_string(u) + " sent to faulty node " +
              std::to_string(to) + " (cycle " + std::to_string(cyc) + ")";
    } else if (to_ok && tl.link_dead(from, to, cyc)) {
      error = "node " + std::to_string(u) + " sent over faulty link to " +
              std::to_string(to) + " (cycle " + std::to_string(cyc) + ")";
    }
    if (!error.empty()) {
      if (fault_policy_ == FaultPolicy::kStrict) throw FaultError(error);
    } else if (!tl.drops_message(cyc, from)) {
      return false;
    }
    note_fault_drop(u, cyc);
    return true;
  }

  /// Accounts one fault-dropped message (degrade-policy kill or transient
  /// drop): Counters, fault-drop metric, and a fault_drop trace instant
  /// tagged with the sender and cycle.
  void note_fault_drop(std::size_t sender, std::uint64_t cyc) {
    ++counters_.messages_lost;
    if (metric_fault_drops_) metric_fault_drops_->add();
    if (trace_) {
      trace_->instant(trace_track_, 0, "fault_drop", "sender", sender,
                      "cycle", cyc);
    }
  }

  /// Replays the sequential validation over the planned outbox and throws
  /// the first violation in sender order — byte-identical to the historical
  /// sequential delivery loop, and deterministic under concurrent
  /// detection (the lowest offending sender wins the error message).
  template <typename P>
  [[noreturn]] void throw_first_violation(
      const std::vector<std::optional<Send<P>>>& outbox) const {
    const std::size_t n = static_cast<std::size_t>(node_count());
    std::vector<char> seen(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
      if (!outbox[u]) continue;
      const net::NodeId to = outbox[u]->to;
      if (to >= n) {
        throw SimError("node " + std::to_string(u) +
                       " sent to out-of-range node " + std::to_string(to));
      }
      if (validate_ && !adj_->has_edge(static_cast<net::NodeId>(u), to)) {
        throw SimError("node " + std::to_string(u) + " sent to " +
                       std::to_string(to) + " but " + topo_.name() +
                       " has no such link");
      }
      if (seen[to]) {
        throw SimError("1-port violation: node " + std::to_string(to) +
                       " would receive two messages in one cycle");
      }
      seen[to] = 1;
    }
    DC_CHECK(false, "delivery flagged a violation the re-scan cannot find");
    std::abort();  // unreachable: DC_CHECK throws
  }

  /// One cache line per worker slot so concurrent add_ops calls never
  /// false-share.
  struct alignas(64) OpsCell {
    std::uint64_t v = 0;
  };

  /// Guard around one comm cycle's trace span: begin on construction, a
  /// kCycleEnd-tagged end (carrying the delivered-message count) via
  /// finish(), and — if the cycle throws before finishing — a plain end so
  /// the exported spans stay balanced. Inert with no recorder attached.
  struct CycleSpan {
    CycleSpan(TraceRecorder* rec, std::uint32_t track, const char* name)
        : rec_(rec), track_(track), name_(name) {
      if (rec_) rec_->begin(track_, 0, name_);
    }
    void finish(std::uint64_t messages) {
      if (rec_) rec_->end_cycle(track_, 0, name_, messages);
      rec_ = nullptr;
    }
    ~CycleSpan() {
      if (rec_) rec_->end(track_, 0, name_);
    }
    CycleSpan(const CycleSpan&) = delete;
    CycleSpan& operator=(const CycleSpan&) = delete;

   private:
    TraceRecorder* rec_;
    std::uint32_t track_;
    const char* name_;
  };

  static SchedulePath default_schedule_path() {
    static const SchedulePath p = [] {
      const char* e = std::getenv("DC_SCHEDULE");
      return e && std::string_view(e) == "interpreted"
                 ? SchedulePath::kInterpreted
                 : SchedulePath::kCompiled;
    }();
    return p;
  }

  const net::Topology& topo_;
  bool validate_;
  SchedulePath schedule_path_ = default_schedule_path();
  std::uint64_t replayed_cycles_ = 0;
  Counters counters_;
  ThreadPool* pool_;  // never null; set at construction
  std::vector<OpsCell> ops_cells_;
  TraceRecorder* trace_ = nullptr;  // null = tracing off (the common case)
  std::uint32_t trace_track_ = 0;
  std::unique_ptr<TraceRecorder> owned_trace_;  // only via enable_trace()
  Histogram* metric_msgs_per_cycle_ = nullptr;  // null = registry unarmed
  MetricCounter* metric_fault_drops_ = nullptr;
  CycleProfiler* profiler_ = nullptr;  // null = imbalance profiling off
  ProxyScope* proxy_scope_ = nullptr;  // null = no proxy emulation
  CommArena arena_;
  mutable const net::FlatAdjacency* adj_ = nullptr;
  std::size_t grain_ = 0;
  EdgeLoadCounters edge_load_;
  std::shared_ptr<const FaultTimeline> timeline_;  // null = no faults
  FaultPolicy fault_policy_ = FaultPolicy::kStrict;
  // Epoch bookkeeping (begin_fault_cycle).
  bool epoch_seen_ = false;
  std::size_t current_epoch_ = 0;
  std::uint64_t last_fault_cycle_ = 0;
  std::uint64_t fault_epochs_seen_ = 0;
  std::uint64_t fault_rejoins_ = 0;
};

}  // namespace dc::sim
