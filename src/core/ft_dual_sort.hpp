// Fault-tolerant D_sort (Algorithm 3 under faults) via proxy emulation.
//
// The bitonic network of core/dual_sort.hpp is oblivious: the dimension
// sequence and the relay pattern of every dimension exchange depend only
// on the order n. Under a fault set below the connectivity bound (D_n is
// n-connected, so any set of fewer than n simultaneous node faults leaves
// it connected; Zhao/Hao/Cheng's generalized-connectivity results in
// PAPERS.md sharpen the multi-path variants) we therefore run the
// *healthy* network, dual_bitonic_network, unchanged inside a
// sim::ProxyScope (sim/fault_transport.hpp), like core/ft_dual_prefix.hpp:
//
//   * every dead node's role moves to its proxy — the nearest live node
//     by healthy BFS distance (sim::proxy_map), ties to the lowest label —
//     which executes the ward's compares alongside its own;
//   * every exchange of the healthy relay schedule (the 3-cycle
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
// A healthy (empty-plan) run issues exactly the paper's schedule —
// 6n² − 7n + 2 comm cycles, every message a single healthy hop, zero
// reroutes — so fault tolerance costs nothing when nothing is broken.
//
// resilient_dual_sort composes the same network with the RecoveryDriver
// (sim/recovery.hpp) for *dynamic* fault timelines: each bitonic level
// (dual_bitonic_level) is one retriable phase working on a copy of the
// level checkpoint, so a link flap mid-level replans routes on the new
// epoch and retries only that level. Mid-run node deaths invalidate
// in-flight network state (a bitonic merge cannot recover a key that
// already moved through the dead node), so the driver restarts the sort
// from input placement with the accumulated dead set — whose keys are the
// only ones lost.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "core/dual_sort.hpp"
#include "sim/fault_transport.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/recovery.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::core {

namespace detail {

/// Missing-aware key order: a lost slot sorts as +infinity. The network
/// compare-exchanges under it with dual_sort's position-stable rule
/// (CompareExchange<FtKeyLess>).
struct FtKeyLess {
  template <typename Key>
  bool operator()(const std::optional<Key>& a,
                  const std::optional<Key>& b) const {
    if (!a) return false;
    if (!b) return static_cast<bool>(a);
    return *a < *b;
  }
};

/// Input placement: every key at its label, dead labels' keys lost.
template <typename Key>
std::vector<std::optional<Key>> ft_place_keys(
    const std::vector<Key>& keys, const std::vector<net::NodeId>& dead) {
  std::vector<std::optional<Key>> val(keys.begin(), keys.end());
  for (const net::NodeId u : dead) val[u].reset();
  return val;
}

}  // namespace detail

/// Sorts the surviving keys under a static fault set. `keys` is indexed
/// by recursive-presentation node label; dead nodes' keys are lost. The
/// result is the logical value at every label after the network: engaged
/// slots hold the surviving keys in sorted order (ascending unless
/// `descending`; lost slots sort as +infinity, so ascending runs leave
/// the survivors in the leading labels), and a dead label's value
/// physically lives at its proxy. The machine may run with the plan
/// attached (as FaultTimeline(plan)) under either policy, or with no
/// faults attached. Healthy cost:
/// exactly the paper's 6n² − 7n + 2 comm cycles, zero reroutes.
template <typename Key>
std::vector<std::optional<Key>> ft_dual_sort(
    sim::Machine& m, const net::RecursiveDualCube& r,
    const std::vector<Key>& keys, const sim::FaultPlan& plan,
    bool descending = false, sim::FtReport* report = nullptr) {
  DC_REQUIRE(keys.size() == r.node_count(), "one key per node required");
  const std::vector<net::NodeId> dead = plan.dead_nodes();
  std::vector<std::optional<Key>> val = detail::ft_place_keys(keys, dead);
  sim::FtReport ftrep;
  {
    sim::ProxyScope proxies(m, r, plan, sim::proxy_map(r, dead), ftrep);
    dual_bitonic_network(m, r, val, 1, descending,
                         detail::CompareExchange<detail::FtKeyLess>{});
  }
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

  // Accumulated ever-dead set (ascending): grows across restarts, never
  // shrinks.
  std::vector<net::NodeId> dead_acc = drv.snapshot().dead_nodes();

  while (true) {
    const std::vector<net::NodeId> rep = sim::proxy_map(r, dead_acc);
    std::vector<std::optional<Key>> val = detail::ft_place_keys(keys, dead_acc);
    std::vector<std::optional<Key>> work, next(val.size());
    try {
      for (unsigned k = 1; k <= r.order(); ++k) {
        // Work on a copy; `val` is the checkpoint of completed levels and
        // is only advanced when the phase returns.
        drv.run_phase("phase:ft_sort_level", [&](const sim::FaultPlan& plan) {
          for (const net::NodeId u : plan.dead_nodes())
            if (!std::binary_search(dead_acc.begin(), dead_acc.end(), u))
              throw detail::FtSortRestart{};
          work = val;
          sim::ProxyScope proxies(m, r, plan, rep, *drv.transport());
          sim::ObliviousSection sched(m, "dual_bitonic_network", {r.order()});
          dual_bitonic_level(m, sched, r, work, next, 1, k, descending,
                             detail::CompareExchange<detail::FtKeyLess>{});
        });
        val.swap(work);
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
