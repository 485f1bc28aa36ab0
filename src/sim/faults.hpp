// Deterministic fault injection for the synchronous machine.
//
// The dual-cube is n-regular and n-connected, so any fault set of fewer
// than n nodes leaves it connected — the property the fault-tolerant
// collectives (collectives/ft_broadcast.hpp, core/ft_dual_prefix.hpp,
// core/ft_dual_sort.hpp) exploit. This header supplies the one fault model
// those algorithms run against:
//
//   * FaultTimeline — what breaks and when: timed down/up events on nodes
//     (kill + rejoin) and links (flaps), plus bounded transient-drop
//     windows whose losses are decided by a stateless hash of
//     (seed, cycle, sender), so two runs with the same timeline lose
//     exactly the same messages. The timeline divides the cycle axis into
//     *epochs* — maximal intervals over which the faulted view is constant.
//     It is the only fault source a Machine filters: every cycle is
//     evaluated against the faults live at its own index, and the machine
//     traces the epoch transitions and rejoin instants it crosses.
//   * FaultPlan — the static dead set: nodes and links dead for a whole
//     run, with no cycle axis. It is what the fault-tolerant collectives,
//     the detour routers, proxy_map and FaultyTopology consume.
//     FaultTimeline::snapshot(c) freezes the faults live at cycle c as a
//     plan, and FaultTimeline(plan) attaches a plan to a machine as a
//     timeline whose faults are down from cycle 0, forever.
//   * FaultPolicy — how a Machine with attached faults reacts when a
//     message touches one: kStrict throws FaultError (the algorithm
//     claimed to be fault-aware and was not), kDegrade silently drops the
//     message and counts it in Counters::messages_lost.
//   * FaultyTopology — a Topology view over any base graph with a plan's
//     faults filtered out. Because it is a distinct Topology object, its
//     FlatAdjacency CSR — and therefore its fingerprint — is rebuilt from
//     the filtered edge set, so the schedule cache can never serve a
//     schedule compiled for the healthy graph (or for another epoch's
//     snapshot) to a faulted one (the cache key is name() + fingerprint;
//     see sim/oblivious.hpp).
//
// The fault model governs communication only: a dead node can neither
// send nor receive, a dead link carries nothing, and a transient drop
// loses one message. Host-side state owned by algorithms (the per-node
// arrays) is the algorithms' responsibility — the fault-tolerant
// collectives emulate dead nodes' roles at live proxies explicitly, and
// the recovery driver (sim/recovery.hpp) checkpoints phase state so a
// mid-run epoch change retries from a consistent snapshot.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "topology/topology.hpp"

namespace dc::sim {

/// Thrown by a Machine under FaultPolicy::kStrict when a message touches a
/// dead node or link, and by fault-tolerant collectives when a fault set
/// disconnects the nodes they must reach.
class FaultError : public dc::CheckError {
 public:
  explicit FaultError(const std::string& what) : dc::CheckError(what) {}
};

/// How an attached Machine reacts when a message touches a fault.
enum class FaultPolicy {
  kStrict,   ///< throw FaultError — the algorithm must route around faults
  kDegrade,  ///< drop the message, count it in Counters::messages_lost
};

namespace detail {
/// Canonical (min, max) key of an undirected link, by value.
inline std::pair<net::NodeId, net::NodeId> ordered_link(net::NodeId u,
                                                        net::NodeId v) {
  return u < v ? std::pair{u, v} : std::pair{v, u};
}

/// The transient-drop decision hash of FaultTimeline's drop windows,
/// pinned by a golden-value test (fault_test.cpp):
///
///   permille(seed, cycle, sender) =
///     splitmix64(seed ^ (cycle * 0x9e3779b97f4a7c15)
///                     ^ (sender + 0x2545f4914f6cdd1d)) mod 1000
///
/// Every operation is fixed-width uint64 arithmetic (two's-complement
/// wraparound, no floating point, no platform-dependent types), so the
/// same (seed, cycle, sender) triple loses the same message on every
/// OS/arch/compiler. A message is dropped iff the value is below the
/// configured drop rate. Documented in docs/MODEL.md "Fault model".
inline std::uint64_t transient_drop_hash(std::uint64_t seed,
                                         std::uint64_t cycle,
                                         net::NodeId sender) {
  std::uint64_t h =
      seed ^ (cycle * 0x9e3779b97f4a7c15ull) ^
      (static_cast<std::uint64_t>(sender) + 0x2545f4914f6cdd1dull);
  return dc::splitmix64(h) % 1000;
}
}  // namespace detail

/// The static dead set: nodes and undirected links that are dead for a
/// whole run. Build one with the fluent kill_* calls (or random_nodes) and
/// hand it to the fault-tolerant collectives or a FaultyTopology; attach
/// it to a Machine as FaultTimeline(plan).
class FaultPlan {
 public:
  /// Kills node `u`. Killing a dead node again changes nothing.
  FaultPlan& kill_node(net::NodeId u) {
    nodes_.insert(u);
    return *this;
  }

  /// Kills the undirected link {u, v}, in both orientations.
  FaultPlan& kill_link(net::NodeId u, net::NodeId v) {
    DC_REQUIRE(u != v, "a link joins two distinct nodes");
    links_.insert(detail::ordered_link(u, v));
    return *this;
  }

  /// `k` distinct nodes of `t`, drawn with a generator seeded by `seed`;
  /// nodes in `exclude` are never chosen.
  static FaultPlan random_nodes(const net::Topology& t, std::size_t k,
                                std::uint64_t seed,
                                const std::vector<net::NodeId>& exclude = {}) {
    DC_REQUIRE(k + exclude.size() <= t.node_count(),
               "cannot kill " << k << " of " << t.node_count() << " nodes");
    FaultPlan plan;
    dc::Rng rng(seed);
    std::unordered_set<net::NodeId> taken(exclude.begin(), exclude.end());
    while (plan.nodes_.size() < k) {
      const net::NodeId u = rng.below(t.node_count());
      if (taken.contains(u)) continue;
      taken.insert(u);
      plan.kill_node(u);
    }
    return plan;
  }

  bool empty() const { return nodes_.empty() && links_.empty(); }
  std::size_t node_fault_count() const { return nodes_.size(); }
  std::size_t link_fault_count() const { return links_.size(); }

  bool node_dead(net::NodeId u) const { return nodes_.contains(u); }

  /// True iff the undirected link {u, v} is dead (dead endpoints are
  /// accounted separately by node_dead).
  bool link_dead(net::NodeId u, net::NodeId v) const {
    return links_.contains(detail::ordered_link(u, v));
  }

  /// Dead nodes, ascending.
  std::vector<net::NodeId> dead_nodes() const {
    return {nodes_.begin(), nodes_.end()};
  }

  /// Same set as dead_nodes, as a hash set (the shape the fault-tolerant
  /// router consumes).
  std::unordered_set<net::NodeId> dead_node_set() const {
    return {nodes_.begin(), nodes_.end()};
  }

  /// Dead undirected links, min-endpoint first, ascending.
  std::vector<std::pair<net::NodeId, net::NodeId>> dead_links() const {
    return {links_.begin(), links_.end()};
  }

 private:
  std::set<net::NodeId> nodes_;
  // NodeId pairs (labels up to 40 bits) do not pack into a single hashable
  // word, and link faults are rare and cold.
  std::set<std::pair<net::NodeId, net::NodeId>> links_;
};

/// A fault scenario: a timeline of timed down/up events on nodes and links
/// plus bounded transient-drop windows. A timeline entity is dead over a
/// set of disjoint half-open cycle intervals [down, up), so links can flap
/// and nodes can rejoin; a static FaultPlan is the timeline whose faults
/// are all down over [0, forever).
///
/// The event cycles partition the cycle axis into *epochs*: within one
/// epoch the set of dead nodes/links (and the active drop rate) is
/// constant, so `snapshot(cycle)` — the dead set live at `cycle`, as a
/// FaultPlan — is constant too. epoch_of/epoch_starts expose the
/// partition; a Machine with an attached timeline traces each transition
/// it crosses ("fault_epoch") and each node rejoin ("fault_rejoin"), and
/// always interprets (never replays) its cycles.
///
/// Build with the fluent node_down/node_up/link_down/link_up/drop_window
/// calls. Events per entity must be issued in cycle order (down strictly
/// before its up, next down at or after the previous up), and none at
/// kForever, the cycle that means never; violations throw SimError naming
/// the entity.
class FaultTimeline {
 public:
  static constexpr std::uint64_t kForever = ~std::uint64_t{0};

  FaultTimeline() = default;
  explicit FaultTimeline(std::uint64_t seed) : seed_(seed) {}

  /// A static plan as a timeline: every dead node and link goes down at
  /// cycle 0 and never comes back up, so the timeline has one epoch and
  /// snapshots to `plan` at every cycle.
  explicit FaultTimeline(const FaultPlan& plan) {
    for (const net::NodeId u : plan.dead_nodes()) node_down(u, 0);
    for (const auto& [u, v] : plan.dead_links()) link_down(u, v, 0);
  }

  /// Node `u` goes down at comm cycle `at` (dead from `at` on, until a
  /// matching node_up).
  FaultTimeline& node_down(net::NodeId u, std::uint64_t at) {
    open_interval(node_[u], at, "node " + std::to_string(u));
    note_event(at);
    return *this;
  }

  /// Node `u` rejoins at `at`: alive again for cycles >= `at`. Its
  /// host-side data is NOT restored by the model — recovery of state is
  /// the resilient driver's job (sim/recovery.hpp).
  FaultTimeline& node_up(net::NodeId u, std::uint64_t at) {
    close_interval(node_[u], at, "node " + std::to_string(u));
    note_event(at);
    rejoins_.emplace_back(at, u);
    return *this;
  }

  /// The undirected link {u, v} goes down at `at`.
  FaultTimeline& link_down(net::NodeId u, net::NodeId v, std::uint64_t at) {
    if (u == v) throw SimError("a link joins two distinct nodes");
    open_interval(link_[detail::ordered_link(u, v)], at,
                  "link " + std::to_string(u) + "-" + std::to_string(v));
    note_event(at);
    return *this;
  }

  /// The undirected link {u, v} comes back up at `at` (a flap closes).
  FaultTimeline& link_up(net::NodeId u, net::NodeId v, std::uint64_t at) {
    if (u == v) throw SimError("a link joins two distinct nodes");
    close_interval(link_[detail::ordered_link(u, v)], at,
                   "link " + std::to_string(u) + "-" + std::to_string(v));
    note_event(at);
    return *this;
  }

  /// Transient-drop window: over cycles [from, to), each planned message
  /// is dropped with probability permille/1000, decided by the stateless
  /// (seed, cycle, sender) hash detail::transient_drop_hash. Applied under
  /// both policies (a flaky link is degradation, not an algorithmic error)
  /// and counted in messages_lost. Windows must not overlap; to = kForever
  /// leaves the window open-ended.
  FaultTimeline& drop_window(unsigned permille, std::uint64_t from,
                             std::uint64_t to) {
    if (permille > 1000) throw SimError("drop rate is per mille");
    if (from >= to)
      throw SimError("drop window [" + std::to_string(from) + ", " +
                     std::to_string(to) + ") is empty");
    for (const DropWindow& w : drops_)
      if (from < w.to && w.from < to)
        throw SimError("drop windows overlap at cycle " +
                       std::to_string(std::max(from, w.from)));
    drops_.push_back(DropWindow{permille, from, to});
    note_event(from);
    if (to != kForever) note_event(to);
    return *this;
  }

  bool empty() const {
    return node_.empty() && link_.empty() && drops_.empty();
  }
  std::uint64_t seed() const { return seed_; }
  std::size_t node_fault_count() const { return node_.size(); }
  std::size_t link_fault_count() const { return link_.size(); }

  /// Largest drop rate of any window (0 = the timeline never drops).
  unsigned max_drop_permille() const {
    unsigned m = 0;
    for (const DropWindow& w : drops_) m = std::max(m, w.permille);
    return m;
  }

  // ---- per-cycle queries (the Machine fault filter's interface) -------

  bool node_dead(net::NodeId u, std::uint64_t cycle) const {
    const auto it = node_.find(u);
    return it != node_.end() && covers(it->second, cycle);
  }

  bool link_dead(net::NodeId u, net::NodeId v, std::uint64_t cycle) const {
    if (link_.empty()) return false;
    const auto it = link_.find(detail::ordered_link(u, v));
    return it != link_.end() && covers(it->second, cycle);
  }

  /// Drop rate of the window covering `cycle` (0 when none does).
  unsigned drop_permille_at(std::uint64_t cycle) const {
    for (const DropWindow& w : drops_)
      if (w.from <= cycle && cycle < w.to) return w.permille;
    return 0;
  }

  bool drops_message(std::uint64_t cycle, net::NodeId sender) const {
    const unsigned permille = drop_permille_at(cycle);
    if (permille == 0) return false;
    return detail::transient_drop_hash(seed_, cycle, sender) < permille;
  }

  /// True iff any fault (node, link or drop window) is live at `cycle`.
  bool any_active(std::uint64_t cycle) const {
    if (drop_permille_at(cycle) > 0) return true;
    for (const auto& [u, iv] : node_)
      if (covers(iv, cycle)) return true;
    for (const auto& [uv, iv] : link_)
      if (covers(iv, cycle)) return true;
    return false;
  }

  // ---- epochs ---------------------------------------------------------

  /// Cycle indices at which the faulted view changes, ascending, always
  /// starting with 0. Epoch e spans [starts[e], starts[e+1]).
  std::vector<std::uint64_t> epoch_starts() const {
    return {boundaries_.begin(), boundaries_.end()};
  }
  std::size_t epoch_count() const { return boundaries_.size(); }

  /// True iff the faulted view can still change after `cycle`: a later
  /// epoch starts, or a drop window covers `cycle` (it draws its drops
  /// afresh every cycle, and with no later epoch it never closes).
  bool changes_after(std::uint64_t cycle) const {
    return boundaries_.upper_bound(cycle) != boundaries_.end() ||
           drop_permille_at(cycle) > 0;
  }

  /// Index of the epoch containing `cycle`.
  std::size_t epoch_of(std::uint64_t cycle) const {
    auto it = boundaries_.upper_bound(cycle);
    return static_cast<std::size_t>(std::distance(boundaries_.begin(), it)) -
           1;
  }

  /// Nodes whose rejoin (node_up) cycle lies in (after, upto], ascending.
  std::vector<net::NodeId> rejoins_between(std::uint64_t after,
                                           std::uint64_t upto) const {
    std::vector<net::NodeId> out;
    for (const auto& [at, u] : rejoins_)
      if (at > after && at <= upto) out.push_back(u);
    std::sort(out.begin(), out.end());
    return out;
  }

  // ---- snapshots (what the recovery driver re-plans against) ----------

  /// The nodes and links dead at `cycle`, frozen as a static FaultPlan
  /// (the shape the fault-tolerant collectives and the detour router
  /// consume). Within one epoch every cycle snapshots identically.
  FaultPlan snapshot(std::uint64_t cycle) const {
    FaultPlan p;
    for (const auto& [u, iv] : node_)
      if (covers(iv, cycle)) p.kill_node(u);
    for (const auto& [uv, iv] : link_)
      if (covers(iv, cycle)) p.kill_link(uv.first, uv.second);
    return p;
  }

  /// Nodes dead at `cycle`, ascending.
  std::vector<net::NodeId> dead_nodes(std::uint64_t cycle) const {
    std::vector<net::NodeId> out;
    for (const auto& [u, iv] : node_)
      if (covers(iv, cycle)) out.push_back(u);
    std::sort(out.begin(), out.end());
    return out;
  }

  // ---- event introspection (the sharded engine re-localizes a global
  // ---- timeline into per-shard ones) ---------------------------------

  struct NodeEvent {
    net::NodeId node = 0;
    std::uint64_t from = 0;
    std::uint64_t to = kForever;  ///< kForever = never rejoins
  };
  struct LinkEvent {
    net::NodeId u = 0;
    net::NodeId v = 0;  ///< u < v
    std::uint64_t from = 0;
    std::uint64_t to = kForever;
  };
  struct DropWindowEvent {
    unsigned permille = 0;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
  };

  /// Every down interval, grouped by entity in ascending label order and
  /// interval order within one entity.
  std::vector<NodeEvent> node_events() const {
    std::vector<NodeEvent> out;
    for (const auto& [u, iv] : node_)
      for (const Interval& i : iv) out.push_back(NodeEvent{u, i.from, i.to});
    return out;
  }
  std::vector<LinkEvent> link_events() const {
    std::vector<LinkEvent> out;
    for (const auto& [uv, iv] : link_)
      for (const Interval& i : iv)
        out.push_back(LinkEvent{uv.first, uv.second, i.from, i.to});
    return out;
  }
  std::vector<DropWindowEvent> drop_windows() const {
    std::vector<DropWindowEvent> out;
    for (const DropWindow& w : drops_)
      out.push_back(DropWindowEvent{w.permille, w.from, w.to});
    return out;
  }

  /// Largest number of simultaneously dead nodes over all epochs — the
  /// figure to compare against the connectivity bound (D_n survives any
  /// set of fewer than n simultaneous node faults; Zhao/Hao/Cheng's
  /// generalized connectivity results in PAPERS.md sharpen the multi-tree
  /// variants).
  std::size_t max_concurrent_node_faults() const {
    std::size_t best = 0;
    for (const std::uint64_t c : boundaries_)
      best = std::max(best, dead_nodes(c).size());
    return best;
  }

 private:
  struct Interval {
    std::uint64_t from = 0;
    std::uint64_t to = kForever;  ///< half-open [from, to); kForever = open
  };
  struct DropWindow {
    unsigned permille = 0;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
  };

  static bool covers(const std::vector<Interval>& iv, std::uint64_t cycle) {
    for (const Interval& i : iv)
      if (i.from <= cycle && cycle < i.to) return true;
    return false;
  }

  static void require_finite(std::uint64_t at, const std::string& event) {
    if (at == kForever)
      throw SimError(event + "@" + std::to_string(at) +
                     ": cycle 2^64-1 means never");
  }

  void open_interval(std::vector<Interval>& iv, std::uint64_t at,
                     const std::string& what) {
    require_finite(at, what + " down");
    if (!iv.empty() && iv.back().to == kForever)
      throw SimError(what + " is already down at cycle " +
                     std::to_string(at));
    if (!iv.empty() && at < iv.back().to)
      throw SimError(what + " down/up events must be in cycle order");
    iv.push_back(Interval{at, kForever});
  }

  void close_interval(std::vector<Interval>& iv, std::uint64_t at,
                      const std::string& what) {
    require_finite(at, what + " up");
    if (iv.empty() || iv.back().to != kForever)
      throw SimError(what + " is not down at cycle " + std::to_string(at));
    if (at <= iv.back().from)
      throw SimError(what + " up@" + std::to_string(at) +
                     " must come after its down@" +
                     std::to_string(iv.back().from));
    iv.back().to = at;
  }

  void note_event(std::uint64_t at) { boundaries_.insert(at); }

  std::uint64_t seed_ = 0;
  std::map<net::NodeId, std::vector<Interval>> node_;
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<Interval>> link_;
  std::vector<DropWindow> drops_;
  std::vector<std::pair<std::uint64_t, net::NodeId>> rejoins_;
  std::set<std::uint64_t> boundaries_{0};  ///< epoch starts, always incl. 0
};

/// A Topology view with a plan's faults removed: dead nodes lose every
/// incident edge, dead links disappear. node_count() and name() match the
/// base — the graphs are deliberately distinguishable only by their edge
/// sets, which is exactly what the FlatAdjacency fingerprint captures, so
/// a compiled schedule recorded on the healthy base can never replay here.
/// One view per timeline epoch is FaultyTopology(base, timeline.snapshot(c)).
class FaultyTopology final : public net::Topology {
 public:
  FaultyTopology(const net::Topology& base, const FaultPlan& plan)
      : base_(&base), plan_(plan) {
    for (const net::NodeId u : plan.dead_nodes())
      DC_REQUIRE(u < base.node_count(),
                 "fault plan kills node " << u << " outside " << base.name());
  }

  std::string name() const override { return base_->name(); }
  net::NodeId node_count() const override { return base_->node_count(); }

  std::vector<net::NodeId> neighbors(net::NodeId u) const override {
    if (plan_.node_dead(u)) return {};
    std::vector<net::NodeId> out;
    for (const net::NodeId v : base_->neighbors(u))
      if (!plan_.node_dead(v) && !plan_.link_dead(u, v)) out.push_back(v);
    return out;
  }

  bool has_edge(net::NodeId u, net::NodeId v) const override {
    return !plan_.node_dead(u) && !plan_.node_dead(v) &&
           !plan_.link_dead(u, v) && base_->has_edge(u, v);
  }

  const net::Topology& base() const { return *base_; }
  bool node_alive(net::NodeId u) const { return !plan_.node_dead(u); }
  std::size_t dead_node_count() const { return plan_.node_fault_count(); }

 private:
  const net::Topology* base_;
  FaultPlan plan_;
};

namespace detail {
/// Digits-only number parse for the fault spec grammars; throws SimError
/// naming the malformed piece and the spec it came from, including a
/// number above 2^64-1 (which would otherwise wrap to a small one).
inline std::uint64_t parse_spec_u64(std::string_view s,
                                    std::string_view spec) {
  if (s.empty())
    throw SimError("empty number in fault spec '" + std::string(spec) + "'");
  std::uint64_t v = 0;
  const char* const last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (end != last)
    throw SimError("bad number '" + std::string(s) + "' in fault spec '" +
                   std::string(spec) + "'");
  if (ec != std::errc{})
    throw SimError("number '" + std::string(s) + "' in fault spec '" +
                   std::string(spec) + "' is above 2^64-1");
  return v;
}

inline std::vector<std::string_view> split_spec(std::string_view s,
                                                char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const auto pos = s.find(sep);
    parts.push_back(s.substr(0, pos));
    if (pos == std::string_view::npos) break;
    s.remove_prefix(pos + 1);
  }
  return parts;
}
}  // namespace detail

/// Parses a dcsim-style fault spec into a static plan:
///   "nodes:a,b,c"    — kill the listed node labels;
///   "random:k"       — kill k random nodes drawn with default_seed;
///   "random:k,seed"  — same with an explicit seed.
/// Returns the plan, or throws SimError naming the malformed piece:
/// empty specs, duplicate node ids and out-of-range ids are all rejected
/// (never silently deduped).
inline FaultPlan parse_fault_spec(std::string_view spec,
                                  const net::Topology& t,
                                  std::uint64_t default_seed = 1) {
  if (spec.empty()) throw SimError("empty fault spec");
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos)
    throw SimError("fault spec must be nodes:a,b,... or random:k[,seed], "
                   "got '" + std::string(spec) + "'");
  const std::string_view kind = spec.substr(0, colon);
  const std::string_view rest = spec.substr(colon + 1);
  if (kind == "nodes") {
    FaultPlan plan;
    for (const std::string_view part : detail::split_spec(rest, ',')) {
      const std::uint64_t u = detail::parse_spec_u64(part, spec);
      if (u >= t.node_count())
        throw SimError("fault spec names node " + std::to_string(u) +
                       " but " + t.name() + " has " +
                       std::to_string(t.node_count()) + " nodes");
      if (plan.node_dead(static_cast<net::NodeId>(u)))
        throw SimError("fault spec names node " + std::to_string(u) +
                       " twice");
      plan.kill_node(static_cast<net::NodeId>(u));
    }
    return plan;  // split_spec never returns zero parts, so >= 1 node
  }
  if (kind == "random") {
    const auto parts = detail::split_spec(rest, ',');
    if (parts.size() > 2)
      throw SimError("random fault spec is random:k[,seed], got '" +
                     std::string(spec) + "'");
    const std::uint64_t k = detail::parse_spec_u64(parts[0], spec);
    const std::uint64_t seed =
        parts.size() == 2 ? detail::parse_spec_u64(parts[1], spec)
                          : default_seed;
    if (k > t.node_count())
      throw SimError("cannot kill " + std::to_string(k) + " of " +
                     std::to_string(t.node_count()) + " nodes");
    return FaultPlan::random_nodes(t, k, seed);
  }
  throw SimError("unknown fault spec kind '" + std::string(kind) +
                 "' (nodes|random)");
}

/// Parses a dcsim-style fault timeline spec: '+'-separated events
///   node:ID:down@C[:up@C]     — node kill at C, optional rejoin
///   link:U-V:down@C[:up@C]    — link death at C, optional flap back up
///   drop:PERMILLE@C1-C2       — transient-drop window over [C1, C2)
/// e.g. "link:0-1:down@4:up@9+node:3:down@2". Throws SimError naming the
/// malformed event. Cycles are machine comm-cycle indices.
inline FaultTimeline parse_fault_timeline(std::string_view spec,
                                          const net::Topology& t,
                                          std::uint64_t default_seed = 1) {
  if (spec.empty()) throw SimError("empty fault timeline spec");
  FaultTimeline tl(default_seed);

  const auto node_id = [&](std::string_view s) -> net::NodeId {
    const std::uint64_t u = detail::parse_spec_u64(s, spec);
    if (u >= t.node_count())
      throw SimError("fault timeline names node " + std::to_string(u) +
                     " but " + t.name() + " has " +
                     std::to_string(t.node_count()) + " nodes");
    return static_cast<net::NodeId>(u);
  };
  // "down@C" / "down@C" ":up@C" suffix parts shared by node and link
  // events; `apply(at, is_down)` installs each edge of the flap.
  const auto updown = [&](const std::vector<std::string_view>& parts,
                          std::size_t first, std::string_view event,
                          auto&& apply) {
    if (parts.size() <= first || parts.size() > first + 2)
      throw SimError("fault timeline event '" + std::string(event) +
                     "' must be down@CYCLE[:up@CYCLE]");
    for (std::size_t i = first; i < parts.size(); ++i) {
      const std::string_view p = parts[i];
      const bool is_down = i == first;
      const std::string_view tag = is_down ? "down@" : "up@";
      if (p.substr(0, tag.size()) != tag)
        throw SimError("fault timeline event '" + std::string(event) +
                       "' must be down@CYCLE[:up@CYCLE]");
      apply(detail::parse_spec_u64(p.substr(tag.size()), spec), is_down);
    }
  };

  for (const std::string_view event : detail::split_spec(spec, '+')) {
    const auto parts = detail::split_spec(event, ':');
    const std::string_view kind = parts[0];
    if (kind == "node") {
      if (parts.size() < 2)
        throw SimError("fault timeline event '" + std::string(event) +
                       "' is missing a node id");
      const net::NodeId u = node_id(parts[1]);
      updown(parts, 2, event, [&](std::uint64_t at, bool is_down) {
        is_down ? tl.node_down(u, at) : tl.node_up(u, at);
      });
    } else if (kind == "link") {
      if (parts.size() < 2)
        throw SimError("fault timeline event '" + std::string(event) +
                       "' is missing U-V endpoints");
      const auto ends = detail::split_spec(parts[1], '-');
      if (ends.size() != 2)
        throw SimError("fault timeline link endpoints must be U-V, got '" +
                       std::string(parts[1]) + "'");
      const net::NodeId u = node_id(ends[0]);
      const net::NodeId v = node_id(ends[1]);
      if (u == v)
        throw SimError("fault timeline link " + std::to_string(u) + "-" +
                       std::to_string(v) + " joins a node to itself");
      if (!t.has_edge(u, v))
        throw SimError("fault timeline link " + std::to_string(u) + "-" +
                       std::to_string(v) + " is not an edge of " + t.name());
      updown(parts, 2, event, [&](std::uint64_t at, bool is_down) {
        is_down ? tl.link_down(u, v, at) : tl.link_up(u, v, at);
      });
    } else if (kind == "drop") {
      // drop:PERMILLE@C1-C2
      if (parts.size() != 2 || parts[1].find('@') == std::string_view::npos)
        throw SimError("fault timeline drop window must be "
                       "drop:PERMILLE@FROM-TO, got '" + std::string(event) +
                       "'");
      const auto at = parts[1].find('@');
      const std::uint64_t permille =
          detail::parse_spec_u64(parts[1].substr(0, at), spec);
      const auto range = detail::split_spec(parts[1].substr(at + 1), '-');
      if (range.size() != 2)
        throw SimError("fault timeline drop window must be "
                       "drop:PERMILLE@FROM-TO, got '" + std::string(event) +
                       "'");
      if (permille > 1000)
        throw SimError("fault timeline drop rate " +
                       std::to_string(permille) + " is per mille (<= 1000)");
      tl.drop_window(static_cast<unsigned>(permille),
                     detail::parse_spec_u64(range[0], spec),
                     detail::parse_spec_u64(range[1], spec));
    } else {
      throw SimError("unknown fault timeline event kind '" +
                     std::string(kind) + "' (node|link|drop)");
    }
  }
  return tl;
}

}  // namespace dc::sim
