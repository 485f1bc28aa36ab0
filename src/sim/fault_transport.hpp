// Payload-carrying detour transport for fault-tolerant execution.
//
// Code that runs under faults expresses its communication as *logical*
// messages between nodes of the healthy algorithm. Two places build them:
// ProxyScope below, which re-addresses every exchange of an oblivious
// algorithm to the live proxies of its endpoints, and ft_broadcast's
// repair pass (collectives/ft_broadcast.hpp). When faults kill the single
// healthy link (or one endpoint's role has moved to a live proxy), the
// logical message must travel a multi-hop fault-free detour instead. This
// header ships those messages through the store-and-forward drain
// (sim/store_forward.hpp) as DetourPackets, so every hop is still a
// validated 1-port machine transfer and contention on shared detour links
// is resolved by the usual deterministic rules.
//
// Detour paths come from route_dual_cube_fault_tolerant (node faults);
// when the plan also kills links, any tier-1/2 route that crosses a dead
// link is replaced by a BFS shortest path on the FaultyTopology view. The
// plan is a static dead set; under a fault timeline it is one epoch's
// snapshot (sim/recovery.hpp re-plans when the epoch changes).
//
// Costs are reported per batch: the comm cycles the drain consumed, the
// hops actually walked, and — separately — the hops that would not exist
// in a healthy run (deviated hops, mirrored into
// Counters::messages_rerouted via Machine::note_rerouted).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/store_forward.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"
#include "topology/fault_routing.hpp"
#include "topology/graph.hpp"

namespace dc::sim {

/// A store-and-forward packet that carries a value to a *logical*
/// destination (the healthy algorithm's addressee, which may differ from
/// the physical node at the back of the path when a proxy stands in).
template <typename V>
struct DetourPacket {
  net::NodeId origin = 0;
  std::vector<net::NodeId> path;  ///< front = current node (drain contract)
  std::uint64_t injected_at = 0;
  std::uint64_t arrived_at = 0;
  net::NodeId logical_dst = 0;
  V payload{};
};

/// One message of the healthy schedule, re-addressed to the physical
/// endpoints that hold the logical endpoints' state under the fault set.
template <typename V>
struct LogicalMessage {
  net::NodeId phys_src = 0;
  net::NodeId phys_dst = 0;
  net::NodeId logical_src = 0;
  net::NodeId logical_dst = 0;
  V payload{};
  /// Repair traffic with no healthy counterpart (counted as rerouted even
  /// when it happens to fit in one hop).
  bool forced_detour = false;
};

/// Cost report for one detour batch / one fault-tolerant collective.
struct FtReport {
  std::uint64_t base_cycles = 0;     ///< cycles the healthy schedule costs
  std::uint64_t repair_cycles = 0;   ///< extra comm cycles paid to faults
  std::uint64_t repaired = 0;        ///< logical messages carried by detour
  std::uint64_t rerouted_hops = 0;   ///< hops beyond the healthy single link
  std::uint64_t bfs_fallbacks = 0;   ///< routes that needed tier-2 BFS
};

/// Deterministic proxy assignment: rep[u] = u for live nodes; for dead
/// nodes the live node at minimal healthy-graph BFS distance, ties to the
/// lowest label. Works on any Topology (the fault-tolerant sort runs on
/// the recursive presentation). Throws FaultError when no node is live: a
/// sort's dead set accumulates over its epochs, so it can reach every node
/// even when no single epoch kills them all.
inline std::vector<net::NodeId> proxy_map(
    const net::Topology& t, const std::vector<net::NodeId>& dead_sorted) {
  const std::size_t n_nodes = t.node_count();
  std::vector<net::NodeId> rep(n_nodes);
  for (net::NodeId u = 0; u < n_nodes; ++u) rep[u] = u;
  std::vector<std::uint8_t> is_dead(n_nodes, 0);
  for (const net::NodeId u : dead_sorted) is_dead[u] = 1;
  for (const net::NodeId u : dead_sorted) {
    const auto dist = net::bfs_distances(t, u);
    net::NodeId best = n_nodes;
    std::uint32_t best_dist = ~std::uint32_t{0};
    for (net::NodeId v = 0; v < n_nodes; ++v) {
      if (is_dead[v]) continue;
      if (dist[v] < best_dist) {
        best_dist = dist[v];
        best = v;
      }
    }
    if (best == n_nodes) throw FaultError("fault plan kills every node");
    rep[u] = best;
  }
  return rep;
}

namespace detail {

/// BFS shortest path src -> dst on any topology (used when dead links make
/// the dual-cube router's path invalid). Empty iff disconnected.
inline std::vector<net::NodeId> bfs_path(const net::Topology& t,
                                         net::NodeId src, net::NodeId dst) {
  if (src == dst) return {src};
  const net::NodeId n = t.node_count();
  std::vector<net::NodeId> parent(n, n);  // n = unvisited
  std::deque<net::NodeId> frontier{src};
  parent[src] = src;
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop_front();
    for (const net::NodeId v : t.neighbors(u)) {
      if (parent[v] != n) continue;
      parent[v] = u;
      if (v == dst) {
        std::vector<net::NodeId> path{dst};
        for (net::NodeId at = dst; at != src; at = parent[at])
          path.push_back(parent[at]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(v);
    }
  }
  return {};
}

/// The drain's queue bookkeeping assumes every machine-accepted send is
/// delivered; a transient drop would strand the packet forever. Checked
/// against the machine's attached faults. A drop window is a user's fault
/// spec, not a library bug, so the refusal is a SimError with a fixed
/// message rather than a DC_REQUIRE naming a source location.
inline void require_drop_free(const Machine& m) {
  const FaultTimeline* tl = m.fault_timeline();
  if (tl && tl->max_drop_permille() != 0)
    throw SimError("fault-tolerant collectives require a drop-free fault plan");
}

/// Shared body of the deliver_with_detours overloads: `route(src, dst)`
/// returns a fault-free path (front = src, back = dst; empty =
/// disconnected) and whether it came from a BFS fallback. The receivers'
/// recv slots must be empty on entry. A detour hop the machine drops
/// (kDegrade, a fault that appeared after the routes were planned) loses
/// a message the healthy algorithm cannot do without, so the batch throws
/// FaultError naming the first logical receiver left without it.
template <typename V, typename RouteFn>
FtReport deliver_with_routes(Machine& m,
                             std::vector<LogicalMessage<V>> msgs,
                             std::vector<std::optional<V>>& recv,
                             RouteFn&& route_fn) {
  FtReport rep;
  std::vector<DetourPacket<V>> packets;
  packets.reserve(msgs.size());
  for (auto& msg : msgs) {
    if (msg.phys_src == msg.phys_dst) {
      // One physical node holds both logical endpoints: no message.
      recv[msg.logical_dst] = std::move(msg.payload);
      continue;
    }
    auto [path, used_fallback] = route_fn(msg.phys_src, msg.phys_dst);
    if (path.empty())
      throw FaultError("fault set disconnects node " +
                       std::to_string(msg.phys_dst) + " from node " +
                       std::to_string(msg.phys_src));
    if (used_fallback) ++rep.bfs_fallbacks;
    const std::uint64_t hops = path.size() - 1;
    // A logical message "deviates" when it is not the healthy single hop
    // between its own logical endpoints.
    const bool deviated = msg.forced_detour ||
                          msg.phys_src != msg.logical_src ||
                          msg.phys_dst != msg.logical_dst || hops > 1;
    if (deviated) {
      rep.rerouted_hops += hops;
      ++rep.repaired;
      if (TraceRecorder* rec = m.trace()) {
        rec->instant(m.trace_track(), 0, "fault_detour", "logical_dst",
                     msg.logical_dst, "hops", hops);
      }
    }
    packets.push_back(DetourPacket<V>{msg.phys_src, std::move(path), 0, 0,
                                      msg.logical_dst,
                                      std::move(msg.payload)});
  }
  if (!packets.empty()) {
    const RoutingReport drained = drain_packet_list(
        m, std::move(packets),
        [&](DetourPacket<V>&& p, std::uint64_t) {
          recv[p.logical_dst] = std::move(p.payload);
        });
    rep.repair_cycles = drained.cycles;
    if (drained.lost > 0) {
      for (const auto& msg : msgs) {
        if (!recv[msg.logical_dst])
          throw FaultError("detour to logical node " +
                           std::to_string(msg.logical_dst) +
                           " was dropped in flight");
      }
    }
  }
  if (rep.rerouted_hops > 0) m.note_rerouted(rep.rerouted_hops);
  return rep;
}

}  // namespace detail

/// Delivers a batch of logical messages over fault-free paths, writing
/// each payload into recv[logical_dst]. Messages whose physical endpoints
/// coincide (a proxy talking to itself) are delivered host-side for free,
/// like the healthy algorithm's local state handoffs. Throws FaultError if
/// some message's endpoints are disconnected in the fault-free subgraph —
/// impossible for fewer than n node faults in D_n — or if a degraded
/// machine drops a detour hop.
template <typename V>
FtReport deliver_with_detours(Machine& m, const net::DualCube& d,
                              const FaultPlan& plan,
                              std::vector<LogicalMessage<V>> msgs,
                              dc::Rng& rng,
                              std::vector<std::optional<V>>& recv) {
  detail::require_drop_free(m);
  const std::unordered_set<net::NodeId> dead = plan.dead_node_set();
  const bool has_link_faults = plan.link_fault_count() > 0;
  std::optional<FaultyTopology> view;
  if (has_link_faults) view.emplace(d, plan);

  const auto crosses_dead_link = [&](const std::vector<net::NodeId>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      if (plan.link_dead(path[i], path[i + 1])) return true;
    return false;
  };

  return detail::deliver_with_routes(
      m, std::move(msgs), recv,
      [&](net::NodeId src, net::NodeId dst)
          -> std::pair<std::vector<net::NodeId>, bool> {
        auto route = net::route_dual_cube_fault_tolerant(d, src, dst, dead,
                                                         rng);
        if (has_link_faults && !route.path.empty() &&
            crosses_dead_link(route.path)) {
          route.path = detail::bfs_path(*view, src, dst);
          route.used_fallback = true;
        }
        return {std::move(route.path), route.used_fallback};
      });
}

/// Generic-topology overload: routes purely on the faulted view (direct
/// hop when the healthy link survives, BFS shortest path otherwise). This
/// is the router the recursive-presentation collectives use — the
/// fault-tolerant sort runs on RecursiveDualCube, whose labels the
/// standard-presentation dual-cube router does not speak — and it works
/// on any Topology. Costs, trace events and disconnection behavior match
/// the dual-cube overload.
template <typename V>
FtReport deliver_with_detours(Machine& m, const net::Topology& base,
                              const FaultPlan& plan,
                              std::vector<LogicalMessage<V>> msgs,
                              std::vector<std::optional<V>>& recv) {
  detail::require_drop_free(m);
  const FaultyTopology view(base, plan);
  return detail::deliver_with_routes(
      m, std::move(msgs), recv,
      [&](net::NodeId src, net::NodeId dst)
          -> std::pair<std::vector<net::NodeId>, bool> {
        if (view.has_edge(src, dst))
          return {std::vector<net::NodeId>{src, dst}, false};
        return {detail::bfs_path(view, src, dst), true};
      });
}

/// Proxy emulation of an oblivious algorithm under a static fault set.
/// While a scope is open on a machine, every ObliviousSection exchange
/// (sim/oblivious.hpp) takes the proxy path, exchange_blocks below: the
/// interpreted path with its comm_cycle replaced by one detour batch. Each
/// logical message u -> v of the healthy schedule travels from rep[u] to
/// rep[v] (the physical nodes that host u's and v's roles) carrying only
/// the logical sender's id, and the inbox is then packed by logical
/// receiver — so the algorithm's own compute steps run unchanged, a dead
/// node's work done by its proxy. What a dead node's input becomes is the
/// caller's choice (the prefix masks it to the identity, the sort to a
/// missing key).
///
/// Every exchange is one healthy cycle in the FtReport's base_cycles; the
/// drain cycles beyond the first are repair_cycles. With an empty plan
/// every message is its healthy single hop and each exchange drains in one
/// cycle, so the run costs exactly the healthy schedule. Scopes do not
/// nest; a section opened inside a scope must close before it.
class ProxyScope {
 public:
  /// Routes on `plan`'s faulted view of `topo` (direct hop when the
  /// healthy link survives, BFS shortest path otherwise) and emulates the
  /// proxy map `rep`, which may cover more dead nodes than `plan` kills.
  ProxyScope(Machine& m, const net::Topology& topo, const FaultPlan& plan,
             std::vector<net::NodeId> rep, FtReport& report)
      : m_(m), topo_(topo), plan_(plan), rep_(std::move(rep)), report_(report) {
    DC_REQUIRE(&m_.topology() == &topo_,
               "machine must run on the proxy scope's topology");
    DC_REQUIRE(rep_.size() == topo_.node_count(),
               "one proxy per node required");
    DC_REQUIRE(m_.proxy_scope() == nullptr, "proxy scopes do not nest");
    dest_.resize(rep_.size());
    m_.set_proxy_scope(this);
  }

  /// Routes with route_dual_cube_fault_tolerant (BFS on the faulted view
  /// when a route crosses a dead link), drawing from one Rng(seed) for the
  /// whole scope; proxies are proxy_map(d, plan.dead_nodes()).
  ProxyScope(Machine& m, const net::DualCube& d, const FaultPlan& plan,
             FtReport& report, dc::u64 seed)
      : ProxyScope(m, d, plan, proxy_map(d, plan.dead_nodes()), report) {
    dual_ = &d;
    rng_ = dc::Rng(seed);
  }

  ~ProxyScope() { m_.set_proxy_scope(nullptr); }
  ProxyScope(const ProxyScope&) = delete;
  ProxyScope& operator=(const ProxyScope&) = delete;

  /// One logical exchange (ObliviousSection::exchange_blocks' contract):
  /// dest_of(u) is u's logical destination or kNoSend, and the returned
  /// inbox holds, at every logical receiver v, the `width`-element row
  /// `src` names for v's logical sender. Only node ids cross the detour
  /// transport; the rows are copied once, by Machine::pack_blocks.
  template <typename T, typename DestFn, typename Src>
  BlockInbox<T> exchange_blocks(std::size_t width, DestFn&& dest_of,
                                Src&& src) {
    for (net::NodeId u = 0; u < dest_.size(); ++u) dest_[u] = dest_of(u);
    return m_.pack_blocks<T>(width, (this->*deliver_)().data(), src);
  }

 private:
  /// Ships the exchange in dest_ as one detour batch of sender ids and
  /// books it into the FtReport; returns each logical receiver's sender.
  const std::vector<std::optional<net::NodeId>>& deliver() {
    // One span per logical exchange: the healthy cycle plus whatever repair
    // drain the faults force, so the timeline shows which exchanges paid.
    TraceScope phase(m_.trace(), m_.trace_track(), "phase:ft_exchange");
    const std::size_t n = rep_.size();
    std::vector<LogicalMessage<net::NodeId>> msgs;
    msgs.reserve(n);
    for (net::NodeId u = 0; u < n; ++u) {
      const net::NodeId v = dest_[u];
      if (v == kNoSend) continue;
      DC_REQUIRE(v < n, "logical message to node " << v << " out of range");
      msgs.push_back(
          LogicalMessage<net::NodeId>{rep_[u], rep_[v], u, v, u, false});
    }
    senders_.assign(n, std::nullopt);
    const FtReport batch =
        dual_ ? deliver_with_detours(m_, *dual_, plan_, std::move(msgs), rng_,
                                     senders_)
              : deliver_with_detours(m_, topo_, plan_, std::move(msgs),
                                     senders_);
    report_.base_cycles += 1;
    report_.repair_cycles +=
        batch.repair_cycles > 0 ? batch.repair_cycles - 1 : 0;
    report_.repaired += batch.repaired;
    report_.rerouted_hops += batch.rerouted_hops;
    report_.bfs_fallbacks += batch.bfs_fallbacks;
    return senders_;
  }

  Machine& m_;
  const net::Topology& topo_;
  const FaultPlan plan_;  // a copy: callers may pass a temporary
  std::vector<net::NodeId> rep_;  // logical node -> physical host
  FtReport& report_;
  const net::DualCube* dual_ = nullptr;  // set: route with the dual-cube router
  dc::Rng rng_;
  std::vector<net::NodeId> dest_;  // this exchange's logical destinations
  std::vector<std::optional<net::NodeId>> senders_;
  // exchange_blocks calls deliver() through this pointer, which only the
  // constructors name, so the detour transport is compiled into programs
  // that open a scope, not into every one that instantiates an exchange.
  const std::vector<std::optional<net::NodeId>>& (ProxyScope::*deliver_)() =
      &ProxyScope::deliver;
};

}  // namespace dc::sim
