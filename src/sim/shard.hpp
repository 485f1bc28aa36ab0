// Cluster-sharded execution engine for mega-scale dual-cube runs.
//
// One ShardEngine simulates a dual-cube D_n whose node state no longer fits
// (or should no longer fit) one flat set of global arrays. The topology is
// cut along the recursive D_(n-1) decomposition (topology/shard_plan.hpp):
// every shard holds an equal, contiguous run of whole clusters, so the
// (n-1)-cube exchanges of Cube_prefix stay entirely shard-local and run on
// an ordinary per-shard Machine — same counters, traces and fault refusal
// as the flat engine. Each in-cluster cycle runs as one fused
// exchange+combine sweep, or is interpreted through comm_cycle when the
// run needs per-message fidelity (edge loads, an interpreted schedule path,
// attached faults, or a payload the fused sweep cannot carry); there is no
// mode to select. Only cross-edges leave a
// shard, and for the prefix algorithms their traffic is fully determined by
// one cluster total per cluster; the engine therefore never materializes a
// global cross-edge comm plane and instead routes those values through a
// compact inter-shard exchange buffer of 2^n entries (core/
// sharded_prefix.hpp holds the algorithm-side algebra; docs/MODEL.md
// "Sharded execution" documents the accounting contract).
//
// Memory model (the contract the CI mega-smoke enforces):
//
//   working_bytes(e)  = shard working set: t-slice + s-slice + one comm
//                       plane of element size e, plus the plane's
//                       generation stamps -> shard_nodes() * (3e + 8).
//   store_bytes(e)    = the full result store, node_count() * e.
//
// With no budget the run keeps everything resident (peak ~ working +
// store). With --mem-budget=B, a run whose working + store exceeds B
// spills: the result store is kept per-shard, written slice-by-slice to an
// unlinked temp file, and each machine's comm pool is trimmed after its
// pass, so peak resident stays ~ working_bytes — linear in N/K. When even
// one shard's working set exceeds B the run goes fully out of core: the
// shard's state lives in the spill file and every synchronous cycle
// streams it through a cluster-aligned window sized to the budget —
// cycle-synchrony within the shard is a fidelity contract (each comm cycle
// really sweeps the whole shard before the next begins). The state a
// cycle streams is s plus one compact total per subcube the cycle merges
// (core/sharded_prefix.hpp), minus the window the previous cycle ended
// on, which stays in the buffer. That streaming is exactly what adding
// shards buys back: with enough shards the working set drops under the
// budget and cycles run in core. Only a budget below even one cluster's
// streaming window is refused up front.
//
// Both regimes use one spill-file layout: s in global data-index order at
// [0, N*e) — a spilling run's shard slice and an out-of-core run's
// windows are the same bytes at the same offsets — and an out-of-core
// run's compact totals after it, at [N*e, 2N*e). The engine offers one
// byte-offset I/O pair (spill_write_at / spill_read_at); the front-end
// owns the layout.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"
#include "topology/dual_cube.hpp"
#include "topology/shard_plan.hpp"

namespace dc::sim {

/// Run-to-run accumulated sharding statistics (reset with the counters).
struct ShardStats {
  std::uint64_t runs = 0;              ///< sharded algorithm runs completed
  std::uint64_t cross_edge_bytes = 0;  ///< compact exchange-buffer traffic
  std::uint64_t spill_count = 0;       ///< slices written out of core
  std::uint64_t spill_bytes = 0;       ///< bytes written out of core
  bool last_run_spilled = false;       ///< previous run used the spill path
  bool last_run_out_of_core = false;   ///< previous run streamed its working
                                       ///< state cycle-by-cycle
};

namespace detail {

/// Type-erased base for the engine's pooled per-payload-type scratch, so
/// one engine can serve runs over different monoid value types the same way
/// CommArena serves different payload types.
struct ShardScratchBase {
  virtual ~ShardScratchBase() = default;
  virtual std::size_t resident_bytes() const = 0;
};

/// Reusable arrays for one payload type V. The sharded prefix front-end
/// sizes them on first use; steady-state runs then resize within capacity
/// and allocate nothing.
template <typename V>
struct ShardScratch final : ShardScratchBase {
  std::vector<V> t;        ///< shard-local t slice (one shard at a time)
  std::vector<V> s;        ///< result store: global (resident) or slice (spill)
  std::vector<V> totals0;  ///< T0[m]: class-0 cluster totals, by cluster ID
  std::vector<V> totals1;  ///< T1[j]: class-1 cluster totals, by cluster ID
  std::vector<V> prefix0;  ///< P0[m] = combine of T0[m' < m]
  std::vector<V> prefix1;  ///< P1[j] = combine of T1[j' < j]

  std::size_t resident_bytes() const override {
    return (t.capacity() + s.capacity() + totals0.capacity() +
            totals1.capacity() + prefix0.capacity() + prefix1.capacity()) *
           sizeof(V);
  }
};

/// Unlinked POSIX temp file backing spilled and out-of-core state. Created
/// lazily on the first write (a resident-only engine never touches the
/// filesystem); unlinked immediately, so the space is reclaimed on close
/// even if the process dies.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  void write(std::uint64_t offset, const void* p, std::size_t bytes) {
    ensure_open();
    const char* c = static_cast<const char*>(p);
    while (bytes > 0) {
      const ::ssize_t n = ::pwrite(fd_, c, bytes, static_cast<::off_t>(offset));
      DC_CHECK(n > 0, "shard spill write failed");
      c += n;
      offset += static_cast<std::uint64_t>(n);
      bytes -= static_cast<std::size_t>(n);
    }
  }

  void read(std::uint64_t offset, void* p, std::size_t bytes) const {
    DC_CHECK(fd_ >= 0, "shard spill read before any write");
    char* c = static_cast<char*>(p);
    while (bytes > 0) {
      const ::ssize_t n = ::pread(fd_, c, bytes, static_cast<::off_t>(offset));
      DC_CHECK(n > 0, "shard spill read failed");
      c += n;
      offset += static_cast<std::uint64_t>(n);
      bytes -= static_cast<std::size_t>(n);
    }
  }

 private:
  void ensure_open() {
    if (fd_ >= 0) return;
    const char* dir = std::getenv("TMPDIR");
    if (!dir || !*dir) dir = "/tmp";
    std::string path = std::string(dir) + "/dc_shard_spill_XXXXXX";
    fd_ = ::mkstemp(path.data());
    DC_CHECK(fd_ >= 0, "cannot create shard spill file under " + path);
    ::unlink(path.c_str());
  }

  int fd_ = -1;
};

}  // namespace detail

/// K per-shard Machines over one shared ShardClusterTopology, plus the
/// compact-exchange bookkeeping that keeps a sharded run's Counters, edge
/// loads and results bit-identical to the flat engine's (see
/// core/sharded_prefix.hpp for the proof obligations the front-end meets).
class ShardEngine {
 public:
  /// `mem_budget_bytes` = 0 means unbudgeted (never spill). Every
  /// per-shard machine validates its interpreted cycles.
  ShardEngine(const net::DualCube& d, unsigned shards,
              std::size_t mem_budget_bytes = 0)
      : d_(d),
        plan_(d, shards),
        shard_topo_(d.order() - 1, plan_.clusters_per_shard()),
        budget_(mem_budget_bytes) {
    machines_.reserve(shards);
    for (unsigned k = 0; k < shards; ++k) {
      machines_.push_back(std::make_unique<Machine>(shard_topo_));
    }
  }

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  const net::DualCube& dual_cube() const { return d_; }
  const net::ShardPlan& plan() const { return plan_; }
  const net::ShardClusterTopology& shard_topology() const {
    return shard_topo_;
  }
  unsigned shard_count() const { return plan_.shard_count(); }

  net::NodeId node_count() const { return d_.node_count(); }
  net::NodeId shard_nodes() const { return plan_.shard_node_count(); }
  std::size_t mem_budget_bytes() const { return budget_; }

  Machine& machine(unsigned k) {
    DC_REQUIRE(k < machines_.size(), "shard index out of range");
    return *machines_[k];
  }

  /// Localizes a global-label fault timeline onto the per-shard machines:
  /// node events map to (owning shard, local index); link events must
  /// join two nodes of one shard's cluster blocks (the engine virtualizes
  /// cross-cluster links host-side, so they cannot fault — rejected with
  /// SimError); drop windows apply to every shard, with the drop-hash
  /// seed decorrelated per shard so shards do not lose mirror-image
  /// messages. Every per-shard machine then interprets its cycles (the
  /// sharded front-ends pick the interpreted exchange automatically via
  /// Machine::schedule_path). Under kStrict a fault touch aborts the
  /// whole run; kDegrade drops and counts per shard.
  void attach_faults(const FaultTimeline& global,
                     FaultPolicy policy = FaultPolicy::kStrict) {
    std::vector<FaultTimeline> local;
    local.reserve(machines_.size());
    for (std::size_t k = 0; k < machines_.size(); ++k)
      local.emplace_back(global.seed() ^ (k * 0x9e3779b97f4a7c15ull));
    for (const auto& ev : global.node_events()) {
      DC_REQUIRE(ev.node < node_count(),
                 "fault timeline names node " << ev.node << " outside "
                                              << d_.name());
      const unsigned k = plan_.shard_of_node(ev.node);
      const net::NodeId lu = plan_.local_index(ev.node);
      local[k].node_down(lu, ev.from);
      if (ev.to != FaultTimeline::kForever) local[k].node_up(lu, ev.to);
    }
    for (const auto& ev : global.link_events()) {
      const unsigned ku = plan_.shard_of_node(ev.u);
      const unsigned kv = plan_.shard_of_node(ev.v);
      if (ku != kv || !shard_topo_.has_edge(plan_.local_index(ev.u),
                                            plan_.local_index(ev.v))) {
        throw SimError("fault timeline link " + std::to_string(ev.u) + "-" +
                       std::to_string(ev.v) +
                       " is virtualized by the sharded engine (cross-cluster "
                       "exchange is host-side); only in-cluster links can "
                       "fault under sharding");
      }
      local[ku].link_down(plan_.local_index(ev.u), plan_.local_index(ev.v),
                          ev.from);
      if (ev.to != FaultTimeline::kForever)
        local[ku].link_up(plan_.local_index(ev.u), plan_.local_index(ev.v),
                          ev.to);
    }
    for (const auto& w : global.drop_windows()) {
      for (auto& tl : local) tl.drop_window(w.permille, w.from, w.to);
    }
    for (std::size_t k = 0; k < machines_.size(); ++k) {
      machines_[k]->attach_faults(
          std::make_shared<const FaultTimeline>(std::move(local[k])), policy);
    }
  }
  void clear_faults() {
    for (auto& m : machines_) m->clear_faults();
  }
  bool has_faults() const { return machines_[0]->has_faults(); }

  // ---- memory model -------------------------------------------------

  /// One shard's working set for element size `elem_bytes`: t-slice,
  /// s-slice and one block comm plane (values + generation stamps).
  std::size_t working_bytes(std::size_t elem_bytes) const {
    return static_cast<std::size_t>(shard_nodes()) *
           (3 * elem_bytes + sizeof(std::uint64_t));
  }
  /// The full result store kept live when the run does not spill.
  std::size_t store_bytes(std::size_t elem_bytes) const {
    return static_cast<std::size_t>(node_count()) * elem_bytes;
  }
  /// Whether a run at this element size spills its result store.
  bool will_spill(std::size_t elem_bytes) const {
    return budget_ != 0 &&
           working_bytes(elem_bytes) + store_bytes(elem_bytes) > budget_;
  }
  /// Whether even one shard's working set exceeds the budget, forcing the
  /// run fully out of core: t/s live in the spill file and every
  /// synchronous cycle streams them through a cluster-aligned window.
  bool out_of_core(std::size_t elem_bytes) const {
    return budget_ != 0 && working_bytes(elem_bytes) > budget_;
  }
  /// Nodes per out-of-core streaming window: the largest whole-cluster
  /// multiple whose t+s slices fit in half the budget (the other half is
  /// headroom for exchange arrays, the sink and the page cache's own
  /// buffering), never less than one cluster and never more than a shard.
  net::NodeId oc_window_nodes(std::size_t elem_bytes) const {
    const std::uint64_t csize = cluster_nodes();
    const std::uint64_t cps = plan_.clusters_per_shard();
    std::uint64_t c = budget_ == 0
                          ? cps
                          : static_cast<std::uint64_t>(budget_) /
                                (4 * elem_bytes * csize);
    if (c < 1) c = 1;
    if (c > cps) c = cps;
    return static_cast<net::NodeId>(c * csize);
  }
  /// The smallest budget an out-of-core run accepts: one cluster's t+s
  /// window at double occupancy. Below this not even streaming fits.
  std::size_t oc_floor_bytes(std::size_t elem_bytes) const {
    return 4 * elem_bytes * static_cast<std::size_t>(cluster_nodes());
  }
  /// The peak resident bytes the memory model promises for one run — the
  /// cap the CI mega-smoke enforces with ulimit.
  std::size_t predicted_resident_bytes(std::size_t elem_bytes) const {
    if (out_of_core(elem_bytes)) {
      return 2 * elem_bytes *
             static_cast<std::size_t>(oc_window_nodes(elem_bytes));
    }
    return working_bytes(elem_bytes) +
           (will_spill(elem_bytes) ? 0 : store_bytes(elem_bytes));
  }
  /// Nodes per cluster (= 2^(n-1) for D_n).
  net::NodeId cluster_nodes() const {
    return shard_nodes() / plan_.clusters_per_shard();
  }

  // ---- run lifecycle (called by the algorithm front-end) -------------

  /// Opens one sharded run. Decides (and records in stats) whether this
  /// run spills; `spillable` says whether the payload type supports the
  /// byte-wise out-of-core path (trivially copyable). A budget the run
  /// cannot meet throws SimError naming the remedy.
  void begin_run(std::size_t elem_bytes, bool spillable) {
    oc_run_ = out_of_core(elem_bytes);
    spilling_ = will_spill(elem_bytes);
    if (oc_run_ && budget_ < oc_floor_bytes(elem_bytes)) {
      throw SimError(
          "memory budget is below even one cluster's out-of-core "
          "streaming window; raise the budget");
    }
    if ((spilling_ || oc_run_) && !spillable) {
      throw SimError(
          "this payload type cannot spill out of core (not trivially "
          "copyable); raise the memory budget");
    }
  }

  /// Closes one sharded run: books the virtualized portion of the
  /// algorithm's cost so engine counters stay bit-identical to a flat run.
  /// The compact exchange carries cluster totals whose per-node expansion
  /// is exact (docs/MODEL.md), so the cross cycles and the in-cluster
  /// distribution pass are never executed per node; their model costs —
  /// `comm_cycles` synchronous cycles moving `messages` messages,
  /// `comp_steps` parallel steps applying `ops` operator applications —
  /// are accounted here instead.
  void end_run(std::uint64_t comm_cycles, std::uint64_t messages,
               std::uint64_t comp_steps, std::uint64_t ops) {
    virtual_.comm_cycles += comm_cycles;
    virtual_.messages += messages;
    virtual_.comp_steps += comp_steps;
    virtual_.ops += ops;
    ++stats_.runs;
    if (edge_load_on_) ++edge_runs_;
    stats_.last_run_spilled = spilling_;
    stats_.last_run_out_of_core = oc_run_;
    spilling_ = false;
    oc_run_ = false;
  }

  /// True between begin_run and end_run of a run that spills its result
  /// store.
  bool spilling() const { return spilling_; }
  /// True between begin_run and end_run of a run whose working state
  /// streams through the spill file cycle-by-cycle.
  bool out_of_core_run() const { return oc_run_; }

  /// Spill-file I/O at a byte offset, for spilling and out-of-core runs
  /// alike; the front-end owns the layout (core/sharded_prefix.hpp). Each
  /// write counts as one spill in stats.
  void spill_write_at(std::uint64_t offset, const void* p,
                      std::size_t bytes) {
    spill_.write(offset, p, bytes);
    ++stats_.spill_count;
    stats_.spill_bytes += bytes;
  }
  void spill_read_at(std::uint64_t offset, void* p, std::size_t bytes) const {
    spill_.read(offset, p, bytes);
  }

  /// Releases shard `k`'s pooled comm planes after its pass. Budgeted
  /// engines always trim — with K machines, K pooled planes would sum to a
  /// full global plane, which is exactly what the budget promises not to
  /// keep — trading the zero-steady-state-allocation guarantee for the
  /// cap. Unbudgeted engines keep every pool warm.
  void after_shard_pass(unsigned k) {
    if (budget_ != 0) machine(k).trim_comm_pool();
  }

  /// Pooled per-payload-type scratch arrays, shared by every run of this
  /// engine with value type V (steady-state runs allocate nothing).
  template <typename V>
  detail::ShardScratch<V>& scratch() {
    const std::type_index key(typeid(V));
    auto it = scratch_.find(key);
    if (it == scratch_.end()) {
      it = scratch_
               .emplace(key, std::make_unique<detail::ShardScratch<V>>())
               .first;
    }
    return static_cast<detail::ShardScratch<V>&>(*it->second);
  }

  // ---- accounting ----------------------------------------------------

  /// Aggregated step counters, bit-identical to a flat run's: every shard
  /// executes the same synchronous cycles, so cycle and step counts come
  /// from shard 0 (asserted uniform), message and op totals sum across
  /// shards, and the virtualized cross/distribution costs booked by
  /// end_run are added on top.
  Counters counters() const {
    Counters c = machines_[0]->counters();
    for (std::size_t k = 1; k < machines_.size(); ++k) {
      const Counters mk = machines_[k]->counters();
      DC_CHECK(mk.comm_cycles == c.comm_cycles &&
                   mk.comp_steps == c.comp_steps,
               "shards diverged: per-shard machines executed different "
               "step counts");
      c.messages += mk.messages;
      c.ops += mk.ops;
      c.messages_lost += mk.messages_lost;
      c.messages_rerouted += mk.messages_rerouted;
      // Cycles are lock-stepped across shards, so a fault-active cycle is
      // one cycle no matter how many shards saw it.
      c.fault_cycles = std::max(c.fault_cycles, mk.fault_cycles);
    }
    c.comm_cycles += virtual_.comm_cycles;
    c.comp_steps += virtual_.comp_steps;
    c.messages += virtual_.messages;
    c.ops += virtual_.ops;
    return c;
  }

  void reset_counters() {
    for (auto& m : machines_) m->reset_counters();
    virtual_ = Counters{};
    stats_ = ShardStats{};
    edge_runs_ = 0;
  }

  /// The analytically booked model costs (cross cycles + distribution pass)
  /// that `counters()` adds on top of the per-shard machine totals. The
  /// report layer surfaces these separately so phase attribution over the
  /// shard-0 trace can reconcile against the executed portion alone.
  const Counters& virtual_counters() const { return virtual_; }

  const ShardStats& stats() const { return stats_; }

  /// Per-directed-edge accounting across the whole dual-cube. Enable
  /// before the first run; the sharded front-end then interprets every
  /// cycle (fused cycles carry no edge slots), exactly as the flat
  /// engine falls back under edge loads.
  void enable_edge_load() {
    edge_load_on_ = true;
    for (auto& m : machines_) m->enable_edge_load();
  }
  bool edge_load_enabled() const { return edge_load_on_; }

  /// Messages carried by the directed edge u -> v, in global node labels.
  /// Cluster edges come from the owning shard's machine plus the
  /// virtualized distribution pass (one message per directed cluster edge
  /// per run); cross edges are entirely virtualized (two crossings per
  /// run, step 2 and step 4).
  std::uint64_t edge_load(net::NodeId u, net::NodeId v) const {
    if (!edge_load_on_ || u >= node_count() || v >= node_count()) return 0;
    if (v == d_.cross_neighbor(u)) return 2 * edge_runs_;
    const unsigned ku = plan_.shard_of_node(u);
    if (ku != plan_.shard_of_node(v)) return 0;
    const net::NodeId lu = plan_.local_index(u);
    const net::NodeId lv = plan_.local_index(v);
    std::uint64_t total = machines_[ku]->edge_load(lu, lv);
    if (shard_topo_.has_edge(lu, lv)) total += edge_runs_;
    return total;
  }

  // ---- observability -------------------------------------------------

  /// Attaches a recorder: one engine track (phase spans, e.g.
  /// "phase:shard_exchange") plus one track per shard machine.
  void set_trace(TraceRecorder* rec, const std::string& label = "shards") {
    trace_ = rec;
    trace_track_ = trace_ ? trace_->register_track(label) : 0;
    for (std::size_t k = 0; k < machines_.size(); ++k) {
      machines_[k]->set_trace(rec, label + "/shard" + std::to_string(k));
    }
  }
  TraceRecorder* trace() const { return trace_; }
  std::uint32_t trace_track() const { return trace_track_; }

  /// Forwards a cycle profiler to every per-shard machine. Safe because
  /// the host drives shards sequentially — cycles of different shards
  /// never observe the profiler concurrently.
  void attach_profiler(CycleProfiler* profiler) {
    for (auto& m : machines_) m->attach_profiler(profiler);
  }

  /// Opens / closes the compact inter-shard exchange phase on the engine
  /// track and books its buffer traffic. The front-end brackets its
  /// totals->prefixes scan with these.
  void begin_exchange_phase(std::size_t bytes) {
    stats_.cross_edge_bytes += bytes;
    if (trace_) trace_->begin(trace_track_, 0, "phase:shard_exchange");
  }
  void end_exchange_phase() {
    if (trace_) trace_->end(trace_track_, 0, "phase:shard_exchange");
  }

  /// Bytes currently resident in the engine: pooled comm planes across all
  /// shard machines plus the pooled scratch arrays.
  std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const auto& m : machines_) total += m->comm_pool_resident_bytes();
    for (const auto& [k, s] : scratch_) total += s->resident_bytes();
    return total;
  }

  /// Publishes the engine's end-of-run gauges (aggregated step counters
  /// under the flat sim.* names, plus the sim.shard.* family) into the
  /// armed metrics registry. A publish is a run boundary: per-run gauge
  /// families from any previous run (flat or sharded) are cleared first so
  /// a report never mixes stale sim.edge_load.* / sim.shard.* values into
  /// this run's snapshot. No-op when the registry is unarmed.
  void publish_metrics() const {
    if (!MetricsRegistry::armed()) return;
    auto& reg = MetricsRegistry::instance();
    clear_per_run_gauges(reg);
    const Counters c = counters();
    reg.set_gauge("sim.comm_cycles", static_cast<double>(c.comm_cycles));
    reg.set_gauge("sim.comp_steps", static_cast<double>(c.comp_steps));
    reg.set_gauge("sim.messages", static_cast<double>(c.messages));
    reg.set_gauge("sim.shard.count", static_cast<double>(shard_count()));
    reg.set_gauge("sim.shard.resident_bytes",
                  static_cast<double>(resident_bytes()));
    reg.set_gauge("sim.shard.cross_edge_bytes",
                  static_cast<double>(stats_.cross_edge_bytes));
    reg.set_gauge("sim.shard.spill_count",
                  static_cast<double>(stats_.spill_count));
    reg.set_gauge("sim.shard.spill_bytes",
                  static_cast<double>(stats_.spill_bytes));
    if (has_faults()) {
      std::uint64_t epochs = 0;
      std::uint64_t rejoins = 0;
      for (const auto& m : machines_) {
        epochs = std::max(epochs, m->fault_epochs_seen());
        rejoins += m->fault_rejoins();
      }
      reg.set_gauge("sim.fault.messages_lost",
                    static_cast<double>(c.messages_lost));
      reg.set_gauge("sim.fault.cycles", static_cast<double>(c.fault_cycles));
      reg.set_gauge("sim.fault.epochs", static_cast<double>(epochs));
      reg.set_gauge("sim.fault.rejoins", static_cast<double>(rejoins));
    }
  }

 private:
  const net::DualCube& d_;
  net::ShardPlan plan_;
  net::ShardClusterTopology shard_topo_;
  std::size_t budget_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::unordered_map<std::type_index, std::unique_ptr<detail::ShardScratchBase>>
      scratch_;
  Counters virtual_;  ///< end_run's analytically booked model costs
  ShardStats stats_;
  std::uint64_t edge_runs_ = 0;  ///< runs completed with edge loads on
  bool edge_load_on_ = false;
  bool spilling_ = false;
  bool oc_run_ = false;
  mutable detail::SpillFile spill_;
  TraceRecorder* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace dc::sim
