// Fault-tolerant parallel prefix on the dual-cube — Algorithm 2
// (core/dual_prefix.hpp) run unchanged under a node/link fault set by
// *proxy emulation* (sim::ProxyScope, sim/fault_transport.hpp).
//
// Algorithm 2's dataflow is a fixed sequence of 2n full exchanges (every
// node sends exactly one value and receives exactly one per cycle). Under
// faults we keep the logical dataflow bit-for-bit and move only the
// physical execution:
//
//   * every dead node's role migrates to its nearest live node (its
//     *proxy*: minimal BFS distance in the healthy graph, ties to the
//     lowest label — sim::proxy_map, a deterministic assignment);
//   * each exchange of the healthy schedule is one batch of logical
//     messages delivered between the physical hosts of their endpoints
//     over fault-free detour paths (route_dual_cube_fault_tolerant + the
//     validated store-and-forward drain). A message between two roles
//     hosted by the same proxy is a local handoff and costs nothing;
//   * dead nodes' *data is lost*: they contribute ⊕-identity, so live
//     nodes compute the prefix of the surviving inputs in index order.
//
// With no faults every logical message is the healthy single hop, every
// batch drains in exactly one comm cycle, and the run costs the healthy
// 2n cycles with Counters::messages_rerouted == 0. With any node fault set
// of size < n the fault-free subgraph stays connected (D_n is
// n-connected), every detour exists, and every live node finishes with
// the correct masked prefix; larger sets either still succeed or throw
// FaultError — never a silent wrong answer.
#pragma once

#include <iterator>
#include <optional>
#include <vector>

#include "core/dual_prefix.hpp"
#include "core/ops.hpp"
#include "sim/fault_transport.hpp"
#include "sim/machine.hpp"
#include "topology/dual_cube.hpp"

namespace dc::core {

/// Runs Algorithm 2 under `plan`. `data` is in global index order; the
/// result is too: engaged with the prefix of the *surviving* inputs (dead
/// nodes contribute ⊕-identity) at every live node's index, nullopt at
/// dead nodes' indices. The machine may run with `plan` attached (as
/// FaultTimeline(plan)) under either policy, or with no faults attached.
/// Costs the healthy 2n comm cycles when the plan is empty.
template <Monoid M>
std::vector<std::optional<typename M::value_type>> ft_dual_prefix(
    sim::Machine& m, const net::DualCube& d, const M& op,
    const std::vector<typename M::value_type>& data,
    const sim::FaultPlan& plan, bool inclusive = true,
    sim::FtReport* report = nullptr, dc::u64 detour_seed = 0x0f7b17u) {
  using V = typename M::value_type;
  DC_REQUIRE(data.size() == d.node_count(), "one input per node required");
  const std::vector<net::NodeId> dead = plan.dead_nodes();
  // Data placement: dead nodes' inputs are lost — identity.
  std::vector<V> masked = data;
  for (const net::NodeId u : dead)
    masked[dual_prefix_index_of_node(d, u)] = op.identity();

  sim::FtReport ftrep;
  std::vector<V> scan;
  {
    sim::ProxyScope proxies(m, d, plan, ftrep, detour_seed ^ d.order());
    scan = dual_prefix(m, d, op, masked, {}, inclusive);
  }
  std::vector<std::optional<V>> out(std::make_move_iterator(scan.begin()),
                                    std::make_move_iterator(scan.end()));
  for (const net::NodeId u : dead) out[dual_prefix_index_of_node(d, u)].reset();
  if (report) *report = ftrep;
  return out;
}

}  // namespace dc::core
