// Fault-tolerant D_sort (Algorithm 3 under faults) via proxy emulation.
//
// The bitonic network of core/dual_sort.hpp is oblivious: the dimension
// sequence and the relay pattern of every dimension exchange depend only
// on the order n. Under a fault set below the connectivity bound (D_n is
// n-connected, so any set of fewer than n simultaneous node faults leaves
// it connected; Zhao/Hao/Cheng's generalized-connectivity results in
// PAPERS.md sharpen the multi-path variants) we therefore emulate the
// *healthy* network exactly, like core/ft_dual_prefix.hpp:
//
//   * every dead node's role moves to its proxy — the nearest live node
//     by healthy BFS distance (detail::ft_proxy_map), ties to the lowest
//     label — which executes the ward's compares alongside its own;
//   * every logical message of the healthy relay schedule (the 3-cycle
//     u -> u^0 -> (u^0)^j -> u^j pattern of dimension_exchange.hpp, or the
//     1-cycle dimension-0 exchange) is re-addressed to the physical
//     proxies and shipped over fault-free routes by the detour transport
//     (direct hop when the healthy link survives, BFS detour on the
//     faulted view otherwise), so every hop is still a validated 1-port
//     machine transfer;
//   * dead nodes' keys are lost: their logical slots carry "missing",
//     which compares greater than every real key. After an ascending sort
//     the L surviving keys occupy logical positions 0..L-1 in sorted
//     order and the missing slots sink to the tail (head when
//     descending).
//
// The emulated network walks the healthy network's levels with its
// direction rule (detail::for_each_bitonic_step and
// detail::bitonic_keep_min from core/dual_sort.hpp); only the transport
// differs — scalar logical messages routed over detours instead of the
// healthy network's block planes.
//
// A healthy (empty-plan) run issues exactly the paper's schedule —
// 6n² − 7n + 2 comm cycles, every message a single healthy hop, zero
// reroutes — so fault tolerance costs nothing when nothing is broken.
//
// resilient_dual_sort composes the same network with the RecoveryDriver
// (sim/recovery.hpp) for *dynamic* fault timelines: each bitonic level is
// one retriable phase working on a copy of the level checkpoint, so a
// link flap mid-level replans routes on the new epoch and retries only
// that level. Mid-run node deaths invalidate in-flight network state (a
// bitonic merge cannot recover a key that already moved through the dead
// node), so the driver restarts the sort from input placement with the
// accumulated dead set — whose keys are the only ones lost.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dual_sort.hpp"
#include "core/ft_dual_prefix.hpp"
#include "sim/fault_transport.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/recovery.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::core {

namespace detail {

/// Missing-aware key order: a lost slot sorts as +infinity.
template <typename Key>
bool ft_key_less(const std::optional<Key>& a, const std::optional<Key>& b) {
  if (!a) return false;
  if (!b) return static_cast<bool>(a);
  return *a < *b;
}

/// Emulation context of one fault set: proxy map and hosted-role lists.
struct FtSortRoles {
  std::vector<net::NodeId> rep;                  ///< logical -> physical
  std::vector<std::vector<net::NodeId>> hosted;  ///< physical -> roles

  FtSortRoles(const net::Topology& t,
              const std::vector<net::NodeId>& dead_sorted)
      : rep(ft_proxy_map(t, dead_sorted)), hosted(t.node_count()) {
    for (net::NodeId u = 0; u < t.node_count(); ++u)
      hosted[rep[u]].push_back(u);
  }
};

/// One logical exchange of the healthy schedule under proxies + detours:
/// every logical node u with dest_of(u) != kNoSend ships payload_of(u);
/// afterwards recv[v] holds what logical v received. Healthy cost: 1 comm
/// cycle; fault repair excess is accounted into `ftrep`.
template <typename P, typename DestFn, typename PayFn>
void ft_sort_exchange(sim::Machine& m, const net::Topology& topo,
                      const sim::FaultPlan& plan, const FtSortRoles& roles,
                      DestFn&& dest_of, PayFn&& payload_of,
                      std::vector<std::optional<P>>& recv,
                      sim::FtReport& ftrep) {
  sim::TraceScope phase(m.trace(), m.trace_track(), "phase:ft_exchange");
  const std::size_t n_nodes = topo.node_count();
  std::vector<sim::LogicalMessage<P>> msgs;
  msgs.reserve(n_nodes);
  for (net::NodeId u = 0; u < n_nodes; ++u) {
    const net::NodeId v = dest_of(u);
    if (v == sim::kNoSend) continue;
    msgs.push_back(sim::LogicalMessage<P>{roles.rep[u], roles.rep[v], u, v,
                                          payload_of(u), false});
  }
  recv.assign(n_nodes, std::nullopt);
  const sim::FtReport batch =
      sim::deliver_with_detours(m, topo, plan, std::move(msgs), recv);
  ftrep.base_cycles += 1;
  ftrep.repair_cycles += batch.repair_cycles > 0 ? batch.repair_cycles - 1 : 0;
  ftrep.repaired += batch.repaired;
  ftrep.rerouted_hops += batch.rerouted_hops;
  ftrep.bfs_fallbacks += batch.bfs_fallbacks;
}

/// Runs one bitonic level (level k's half-merge + full-merge dimension
/// steps) of the fault-tolerant network over the logical values `val`,
/// routing against `plan` and emulating with `roles`. Mutates `val` in
/// place — callers that need retry keep their own checkpoint copy.
template <typename Key>
void ft_sort_level(sim::Machine& m, const net::RecursiveDualCube& r,
                   std::vector<std::optional<Key>>& val, unsigned k,
                   bool descending, const sim::FaultPlan& plan,
                   const FtSortRoles& roles, sim::FtReport& ftrep) {
  using MaybeKey = std::optional<Key>;
  using Pair = std::pair<MaybeKey, MaybeKey>;
  const std::size_t n_nodes = r.node_count();
  const unsigned n = r.order();
  std::vector<std::optional<MaybeKey>> recv_v;
  std::vector<std::optional<Pair>> recv_p;
  std::vector<MaybeKey> other(n_nodes);

  for_each_bitonic_step(k, [&](unsigned j, bool half_merge) {
    if (j == 0) {
      ft_sort_exchange<MaybeKey>(
          m, r, plan, roles,
          [](net::NodeId u) { return dc::bits::flip(u, 0); },
          [&](net::NodeId u) { return val[u]; }, recv_v, ftrep);
      m.for_each_node([&](net::NodeId p) {
        for (const net::NodeId u : roles.hosted[p]) other[u] = *recv_v[u];
      });
    } else {
      // The healthy 3-cycle relay of dimension_exchange.hpp, message for
      // message: indirect nodes ship across the cross-edge, direct nodes
      // exchange (own, gathered) pairs over the dimension-j link, then
      // return the second component across the cross-edge.
      const unsigned direct0 = j % 2 == 0 ? 0u : 1u;
      ft_sort_exchange<MaybeKey>(
          m, r, plan, roles,
          [&](net::NodeId u) -> net::NodeId {
            if (dc::bits::get(u, 0) == direct0) return sim::kNoSend;
            return dc::bits::flip(u, 0);
          },
          [&](net::NodeId u) { return val[u]; }, recv_v, ftrep);
      std::vector<MaybeKey> gathered(n_nodes);
      m.for_each_node([&](net::NodeId p) {
        for (const net::NodeId u : roles.hosted[p])
          if (dc::bits::get(u, 0) == direct0) gathered[u] = *recv_v[u];
      });
      ft_sort_exchange<Pair>(
          m, r, plan, roles,
          [&](net::NodeId u) -> net::NodeId {
            if (dc::bits::get(u, 0) != direct0) return sim::kNoSend;
            return dc::bits::flip(u, j);
          },
          [&](net::NodeId u) { return Pair{val[u], gathered[u]}; }, recv_p,
          ftrep);
      ft_sort_exchange<MaybeKey>(
          m, r, plan, roles,
          [&](net::NodeId u) -> net::NodeId {
            if (dc::bits::get(u, 0) != direct0) return sim::kNoSend;
            return dc::bits::flip(u, 0);
          },
          [&](net::NodeId u) { return recv_p[u]->second; }, recv_v, ftrep);
      m.for_each_node([&](net::NodeId p) {
        for (const net::NodeId u : roles.hosted[p]) {
          other[u] = dc::bits::get(u, 0) == direct0 ? recv_p[u]->first
                                                    : *recv_v[u];
        }
      });
    }
    // The compare step of the healthy network, proxies doing their wards'
    // compares too.
    m.compute_step([&](net::NodeId p) {
      for (const net::NodeId u : roles.hosted[p]) {
        const bool keep_min =
            bitonic_keep_min(u, j, k, n, half_merge, descending);
        const bool other_smaller = ft_key_less<Key>(other[u], val[u]);
        if (keep_min == other_smaller) val[u] = other[u];
        m.add_ops(1);
      }
    });
  });
}

}  // namespace detail

/// Sorts the surviving keys under a static fault set. `keys` is indexed
/// by recursive-presentation node label; dead nodes' keys are lost. The
/// result is the logical value at every label after the network: engaged
/// slots hold the surviving keys in sorted order (ascending unless
/// `descending`; lost slots sort as +infinity, so ascending runs leave
/// the survivors in the leading labels), and a dead label's value
/// physically lives at its proxy. The machine may run with the plan
/// attached under either policy, or with no plan attached. Healthy cost:
/// exactly the paper's 6n² − 7n + 2 comm cycles, zero reroutes.
template <typename Key>
std::vector<std::optional<Key>> ft_dual_sort(
    sim::Machine& m, const net::RecursiveDualCube& r,
    const std::vector<Key>& keys, const sim::FaultPlan& plan,
    bool descending = false, sim::FtReport* report = nullptr) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&r),
             "machine must run on the given recursive dual-cube");
  DC_REQUIRE(keys.size() == r.node_count(), "one key per node required");
  const std::size_t n_nodes = r.node_count();

  const std::vector<net::NodeId> dead_sorted = plan.dead_nodes();
  const detail::FtSortRoles roles(r, dead_sorted);
  std::vector<std::uint8_t> is_dead(n_nodes, 0);
  for (const net::NodeId u : dead_sorted) is_dead[u] = 1;

  std::vector<std::optional<Key>> val(n_nodes);
  m.for_each_node([&](net::NodeId p) {
    for (const net::NodeId u : roles.hosted[p])
      if (!is_dead[u]) val[u] = keys[u];
  });

  sim::FtReport ftrep;
  for (unsigned k = 1; k <= r.order(); ++k)
    detail::ft_sort_level(m, r, val, k, descending, plan, roles, ftrep);
  if (report) *report = ftrep;
  return val;
}

namespace detail {
/// Internal control-flow signal of resilient_dual_sort: the dead set grew
/// past what the in-flight network state was built for, so the current
/// phase sequence must be abandoned and the sort restarted.
struct FtSortRestart {};
}  // namespace detail

/// D_sort over a dynamic fault timeline, driven by retry-with-replan.
/// Each bitonic level runs as one retriable phase against the epoch's
/// snapshot, working on a copy of the level checkpoint: a link flap
/// mid-level replans and retries that level only (completed levels are
/// never re-executed). A node death that post-dates the current network
/// state restarts the sort from input placement with the accumulated dead
/// set — their keys are lost (+infinity slots), everyone else's survive.
/// Nodes that ever died stay emulated at their proxies even after a
/// rejoin (their memory is gone); see RecoveryDriver for budget/degrade
/// semantics.
template <typename Key>
std::vector<std::optional<Key>> resilient_dual_sort(
    sim::RecoveryDriver& drv, const net::RecursiveDualCube& r,
    const std::vector<Key>& keys, bool descending = false) {
  sim::Machine& m = drv.machine();
  DC_REQUIRE(keys.size() == r.node_count(), "one key per node required");
  const std::size_t n_nodes = r.node_count();

  // Accumulated ever-dead set: grows across restarts, never shrinks.
  std::vector<net::NodeId> dead_acc = drv.snapshot().dead_nodes();

  while (true) {
    const detail::FtSortRoles roles(r, dead_acc);
    std::vector<std::uint8_t> is_dead(n_nodes, 0);
    for (const net::NodeId u : dead_acc) is_dead[u] = 1;
    std::vector<std::optional<Key>> val(n_nodes);
    m.for_each_node([&](net::NodeId p) {
      for (const net::NodeId u : roles.hosted[p])
        if (!is_dead[u]) val[u] = keys[u];
    });

    try {
      for (unsigned k = 1; k <= r.order(); ++k) {
        // Work on a copy; `val` is the checkpoint of completed levels and
        // is only advanced when the phase returns.
        std::vector<std::optional<Key>> work;
        drv.run_phase("phase:ft_sort_level", [&](const sim::FaultPlan& plan) {
          for (const net::NodeId u : plan.dead_nodes())
            if (!is_dead[u]) throw detail::FtSortRestart{};
          work = val;
          detail::ft_sort_level(m, r, work, k, descending, plan, roles,
                                *drv.transport());
        });
        val = std::move(work);
      }
      return val;
    } catch (const detail::FtSortRestart&) {
      drv.note_restart();
      for (const net::NodeId u : drv.snapshot().dead_nodes()) {
        if (std::find(dead_acc.begin(), dead_acc.end(), u) == dead_acc.end())
          dead_acc.push_back(u);
      }
      std::sort(dead_acc.begin(), dead_acc.end());
    }
  }
}

}  // namespace dc::core
