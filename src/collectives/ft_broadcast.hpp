// Fault-tolerant one-to-all broadcast on the dual-cube.
//
// Strategy, in two layers:
//   1. Run the healthy 2n-cycle cluster-technique schedule
//      (collectives/broadcast.hpp) *fault-aware*: a holder skips any send
//      whose destination node, or whose link, is dead. Every send the
//      schedule still makes is legal under FaultPolicy::kStrict, so a
//      machine with the plan attached never throws. Each dead node (and
//      each dead link on the broadcast tree) silently prunes the subtree
//      hanging below it.
//   2. Detect the pruned nodes — live nodes that finished the schedule
//      without the value — and repair them with payload-carrying detour
//      packets (sim/fault_transport.hpp): each missing node is served from
//      its nearest current holder over a fault-free path found by
//      route_dual_cube_fault_tolerant, drained through the validated
//      store-and-forward machinery. Repair traffic is what
//      Counters::messages_rerouted counts.
//
// Guarantee: D_n is n-connected, so for any node fault set of size < n
// (not containing the root) the fault-free subgraph is connected, every
// missing node has a path from a holder, and every live node ends up with
// the value. Larger fault sets either still succeed or throw FaultError
// naming a disconnected node — never a silent wrong answer.
//
// This pass costs fewer cycles on tab_fault_sweep than dual_broadcast run
// under a ProxyScope (docs/MODEL.md, "Fault-tolerant collectives").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/fault_transport.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"

namespace dc::collectives {

/// Broadcasts `value` from `root` to every live node of D_n under `plan`.
/// Returns per-node values: engaged for every live node (the guarantee for
/// fewer than n node faults), nullopt at dead nodes. The machine may run
/// with `plan` attached (as FaultTimeline(plan)) under either policy, or
/// with no faults attached; the communication issued is identical. Throws
/// FaultError if the root is dead or the fault set disconnects a live
/// node.
template <typename V>
std::vector<std::optional<V>> ft_dual_broadcast(
    sim::Machine& m, const net::DualCube& d, net::NodeId root, const V& value,
    const sim::FaultPlan& plan, sim::FtReport* report = nullptr,
    dc::u64 detour_seed = 0x0f7b17u) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(root < d.node_count(), "root out of range");
  if (plan.node_dead(root))
    throw sim::FaultError("broadcast root " + std::to_string(root) +
                          " is faulty");

  const std::size_t n_nodes = d.node_count();
  const unsigned w = d.order() - 1;
  const auto root_addr = d.decode(root);
  const auto alive = [&](net::NodeId u) { return !plan.node_dead(u); };
  const auto link_ok = [&](net::NodeId u, net::NodeId v) {
    return !plan.link_dead(u, v);
  };

  std::vector<std::optional<V>> have(n_nodes);
  have[root] = value;
  sim::FtReport rep;

  // The destination pattern depends on the fault set, so these cycles are
  // never recorded or replayed (see sim/oblivious.hpp commit guard); they
  // run interpreted, fully validated.
  const auto guarded = [&](net::NodeId u, net::NodeId to) -> net::NodeId {
    if (!alive(to) || !link_ok(u, to)) return sim::kNoSend;
    return to;
  };
  const auto round = [&](auto&& dest_of) {
    auto inbox = m.comm_cycle<V>(
        [&](net::NodeId u) -> std::optional<sim::Send<V>> {
          if (!have[u]) return std::nullopt;
          const net::NodeId to = dest_of(u);
          if (to == sim::kNoSend) return std::nullopt;
          return sim::Send<V>{to, value};
        });
    m.for_each_node([&](net::NodeId u) {
      if (inbox[u]) have[u] = *inbox[u];
    });
    ++rep.base_cycles;
  };

  // Phase 1: binomial tree inside the root's cluster.
  for (unsigned i = 0; i < w; ++i) {
    round([&](net::NodeId u) -> net::NodeId {
      const auto a = d.decode(u);
      if (a.cls != root_addr.cls || a.cluster != root_addr.cluster)
        return sim::kNoSend;
      const dc::u64 rel = a.node ^ root_addr.node;
      if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
      return guarded(u, d.cluster_neighbor(u, i));
    });
  }
  // Phase 2: the root cluster crosses into one node of every foreign
  // cluster.
  round([&](net::NodeId u) { return guarded(u, d.cross_neighbor(u)); });
  // Phase 3: binomial tree inside every foreign-class cluster.
  for (unsigned i = 0; i < w; ++i) {
    round([&](net::NodeId u) -> net::NodeId {
      const auto a = d.decode(u);
      if (a.cls == root_addr.cls) return sim::kNoSend;
      const dc::u64 rel = a.node ^ root_addr.cluster;
      if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
      return guarded(u, d.cluster_neighbor(u, i));
    });
  }
  // Phase 4: the whole foreign class crosses back.
  round([&](net::NodeId u) -> net::NodeId {
    const auto a = d.decode(u);
    if (a.cls == root_addr.cls) return sim::kNoSend;
    return guarded(u, d.cross_neighbor(u));
  });

  // Detect pruned nodes and repair each from its nearest current holder.
  std::vector<net::NodeId> missing;
  for (net::NodeId u = 0; u < n_nodes; ++u)
    if (alive(u) && !have[u]) missing.push_back(u);

  if (!missing.empty()) {
    sim::TraceScope phase(m.trace(), m.trace_track(), "phase:repair");
    std::vector<sim::LogicalMessage<V>> repairs;
    repairs.reserve(missing.size());
    for (const net::NodeId v : missing) {
      net::NodeId holder = root;
      unsigned best = d.distance(root, v);
      for (net::NodeId h = 0; h < n_nodes; ++h) {
        if (!have[h]) continue;
        const unsigned dist = d.distance(h, v);
        if (dist < best) {
          best = dist;
          holder = h;
        }
      }
      repairs.push_back(sim::LogicalMessage<V>{holder, v, root, v, value,
                                               /*forced_detour=*/true});
    }
    dc::Rng rng(detour_seed ^ root);
    std::vector<std::optional<V>> recv(n_nodes);
    const sim::FtReport detours =
        sim::deliver_with_detours(m, d, plan, std::move(repairs), rng, recv);
    for (const net::NodeId v : missing) {
      DC_CHECK(recv[v].has_value(), "repair failed to reach node " << v);
      have[v] = *recv[v];
    }
    rep.repair_cycles = detours.repair_cycles;
    rep.repaired = detours.repaired;
    rep.rerouted_hops = detours.rerouted_hops;
    rep.bfs_fallbacks = detours.bfs_fallbacks;
  }

  for (net::NodeId u = 0; u < n_nodes; ++u)
    DC_CHECK(!alive(u) || have[u].has_value(),
             "broadcast failed to reach live node " << u);
  if (report) *report = rep;
  return have;
}

}  // namespace dc::collectives
