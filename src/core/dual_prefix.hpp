// Algorithm 2 of the paper: parallel prefix computation on the dual-cube
// via the *cluster technique*.
//
// Data arrangement (Section 3). Global data index u' of node u:
//   * class 0: u' = u — class-0 nodes hold indices 0 .. N/2-1, consecutive
//     within each cluster (the node-ID field is the low bits);
//   * class 1: u' = u with part I and part II swapped — so indices are
//     again consecutive within each cluster, and class 1 holds N/2 .. N-1.
//
// The five steps (numbering as in the paper):
//   1. Cube_prefix (inclusive) inside every cluster → (t, s).
//   2. Exchange cluster totals t over the cross-edges. Node j of class-0
//      cluster k is cross-linked to node k of class-1 cluster j, so after
//      this cycle every cluster holds the totals of all 2^(n-1) clusters of
//      the *other* class, indexed by its own node IDs.
//   3. Cube_prefix (diminished) inside every cluster over those totals
//      → (t', s'): s' at node r = ⊕ of the other-class cluster totals with
//      cluster ID < r; t' = the other class's grand total.
//   4. Exchange s' back over the cross-edges and fold: s[u] = recv ⊕ s[u].
//      Each node now has its prefix within its own class's half of the
//      index space.
//   5. Class-1 nodes prepend the class-0 grand total — which is exactly
//      their own t' from step 3, so this is a local ⊕. (The paper schedules
//      one more cross-edge step here and counts T_comm = 2n+1; we measure
//      2n. See DESIGN.md §1.3.)
//
// Cost: 2n communication cycles, 2n computation steps (Theorem 1: ≤ 2n+1
// and ≤ 2n). Only associativity of ⊕ is assumed.
//
// Execution. All 2n cycles run through one ObliviousSection. Steps 1 and
// 3 apply Algorithm 1's step as core/cube_prefix.hpp defines it. On
// compiled replay, each in-cluster exchange runs fused with the
// computation step that consumes it: one sweep of
// detail::cube_prefix_butterfly through
// ObliviousSection::exchange_compute_fused, with no comm plane
// materialized. Counters, edge loads and imbalance samples match the
// unfused pair; only the cycle's trace span name differs
// (comm_cycle_fused). Recording, interpreted and faulted runs exchange
// through the width-1 block plane and apply detail::cube_prefix_step per
// node. The two
// cross-edge exchanges always ship through the block plane; steps 4 and 5
// fold as contiguous range loops. The arrangement is loaded and unloaded
// in bulk (detail::arrange: class 0 copies, class 1 transposes);
// dual_prefix_index_of_node stays the per-node reference.
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cube_prefix.hpp"
#include "core/ops.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/dual_cube.hpp"

namespace dc::core {

/// Global data index held by node `u` under the paper's arrangement.
inline net::NodeId dual_prefix_index_of_node(const net::DualCube& d,
                                             net::NodeId u) {
  DC_REQUIRE(u < d.node_count(), "node out of range");
  if (d.node_class(u) == 0) return u;
  const auto a = d.decode(u);  // class 1: cluster = part I, node = part II
  const unsigned w = d.order() - 1;
  return (dc::u64{1} << (2 * w)) | (a.cluster << w) | a.node;
}

/// Node holding global data index `idx` (inverse of the above).
inline net::NodeId dual_prefix_node_of_index(const net::DualCube& d,
                                             net::NodeId idx) {
  DC_REQUIRE(idx < d.node_count(), "index out of range");
  const unsigned w = d.order() - 1;
  if (dc::bits::get(idx, 2 * w) == 0) return idx;
  const dc::u64 cluster = dc::bits::field(idx, w, w);
  const dc::u64 node = dc::bits::field(idx, 0, w);
  return d.encode({1, cluster, node});
}

/// Observer invoked after each stage of Algorithm 2 with named per-node
/// arrays (index = node label). Drives the Figure 3 reproduction.
template <typename V>
using DualPrefixObserver = std::function<void(
    const std::string& stage,
    const std::vector<std::pair<std::string, std::vector<V>>>& arrays)>;

namespace detail {

/// dst[u] = src[dual_prefix_index_of_node(d, u)] for every node, in bulk.
/// The class-0 half copies straight through; the class-1 half is a
/// 2^w x 2^w matrix that transposes — node half + (M << w) + C (node ID M,
/// cluster ID C) holds index half + (C << w) + M. The map is its own
/// inverse, so the same call also unloads results into index order.
template <typename V>
void arrange(const net::DualCube& d, const V* src, V* dst) {
  const unsigned w = d.order() - 1;
  const dc::u64 side = dc::u64{1} << w;
  const dc::u64 half = side << w;
  std::copy(src, src + half, dst);
  for (dc::u64 node = 0; node < side; ++node) {
    V* const row = dst + half + (node << w);
    for (dc::u64 cluster = 0; cluster < side; ++cluster)
      row[cluster] = src[half + (cluster << w) + node];
  }
}

/// Shared by steps 1 and 3: an in-cluster Cube_prefix pass, in place, over
/// totals `t` and prefixes `s` (ordered by node ID within each cluster).
/// Costs n-1 comm cycles and n-1 comp steps.
template <Monoid M>
void cluster_prefix(sim::Machine& m, sim::ObliviousSection& sched,
                    const net::DualCube& d, const M& op,
                    std::vector<typename M::value_type>& t,
                    std::vector<typename M::value_type>& s) {
  using V = typename M::value_type;
  const unsigned w = d.order() - 1;
  const dc::u64 half = d.node_count() / 2;
  for (unsigned i = 0; i < w; ++i) {
    if (sched.replaying()) {
      // Blocks of 2^(n+i) nodes lie inside one class half and hold whole
      // pairs: the partner is 2^i away in class 0 (node ID = low bits) and
      // 2^(n-1+i) away in class 1 (node ID = middle bits).
      const dc::u64 block = dc::u64{2} << (w + i);
      sched.exchange_compute_fused(
          1, static_cast<std::size_t>(d.node_count() / block),
          [&](std::size_t b_lo, std::size_t b_hi) {
            for (dc::u64 lo = b_lo * block; lo < b_hi * block; lo += block) {
              cube_prefix_butterfly(op, t.data(), s.data(), lo, lo + block,
                                    dc::u64{1} << (lo < half ? i : w + i));
            }
            m.add_ops(cube_prefix_step_ops((b_hi - b_lo) * block));
          });
      continue;
    }
    auto inbox = sched.exchange_blocks<V>(
        1, [&](net::NodeId u) { return d.cluster_neighbor(u, i); },
        sim::PlaneSrc<V>{t.data(), 1});
    m.compute_step([&](net::NodeId u) {
      // Bit i of u's node ID is the flipped label bit of this exchange.
      const bool high = dc::bits::get(u, (u < half ? 0u : w) + i) == 1;
      m.add_ops(cube_prefix_step(op, high, *inbox.block(u), t[u], s[u]));
    });
  }
}

}  // namespace detail

/// Runs Algorithm 2 on machine `m`, whose topology must be `d`.
///
/// `data` is in global index order (data[i] is the i-th input). Returns the
/// prefixes, also in global index order: inclusive prefixes when
/// `inclusive` (the paper's tag = 1), diminished/exclusive prefixes
/// otherwise (tag = 0; identity at index 0). Pass an observer to receive
/// per-stage snapshots (Figure 3). Values ship through the block plane, so
/// they must be semiregular.
template <Monoid M>
  requires std::semiregular<typename M::value_type>
std::vector<typename M::value_type> dual_prefix(
    sim::Machine& m, const net::DualCube& d, const M& op,
    const std::vector<typename M::value_type>& data,
    const DualPrefixObserver<typename M::value_type>& observer = {},
    bool inclusive = true) {
  using V = typename M::value_type;
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(data.size() == d.node_count(), "one input per node required");
  const std::size_t n_nodes = d.node_count();
  const std::size_t half = n_nodes / 2;

  // Load the arrangement straight into t: node u holds data[u'] (uncounted
  // data placement).
  std::vector<V> t(n_nodes);
  detail::arrange(d, data.data(), t.data());
  if (observer) observer("(a) original data distribution", {{"c", t}});

  // All 2n cycles (two cluster passes + two cross-edge exchanges) share one
  // compiled schedule keyed by the dual-cube order; neither the monoid nor
  // the inclusive flag changes any destination.
  sim::ObliviousSection sched(m, "dual_prefix", {d.order()});
  const auto cross = [&](net::NodeId u) { return d.cross_neighbor(u); };

  // Step 1: prefix inside every cluster (diminished when tag = 0; the rest
  // of the algorithm only prepends totals of *preceding* nodes, so the
  // inclusive/diminished choice is decided entirely here).
  std::vector<V> s = inclusive ? t : std::vector<V>(n_nodes, op.identity());
  detail::cluster_prefix(m, sched, d, op, t, s);
  if (observer) observer("(b) prefix inside cluster", {{"t", t}, {"s", s}});

  // Step 2: exchange cluster totals over the cross-edges, received straight
  // into t'.
  std::vector<V> t2;
  {
    auto inbox =
        sched.exchange_blocks<V>(1, cross, sim::PlaneSrc<V>{t.data(), 1});
    t2.assign(inbox.data(), inbox.data() + n_nodes);
  }
  if (observer) observer("(c) exchange t via cross-edge", {{"temp", t2}});

  // Step 3: diminished prefix of the gathered totals inside every cluster.
  std::vector<V> s2(n_nodes, op.identity());
  detail::cluster_prefix(m, sched, d, op, t2, s2);
  if (observer)
    observer("(d) prefix inside cluster over totals", {{"t'", t2}, {"s'", s2}});

  // Step 4: route each node's same-class preceding-cluster total back to it
  // and fold it in on the left.
  {
    auto inbox =
        sched.exchange_blocks<V>(1, cross, sim::PlaneSrc<V>{s2.data(), 1});
    const V* const recv = inbox.data();
    m.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
      for (std::size_t u = lo; u < hi; ++u) s[u] = op.combine(recv[u], s[u]);
      m.add_ops(hi - lo);
    });
  }
  if (observer) observer("(e) fold preceding same-class totals", {{"s", s}});

  // Step 5: class-1 nodes prepend the class-0 grand total (their own t').
  m.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
    lo = std::max(lo, half);
    if (lo >= hi) return;
    for (std::size_t u = lo; u < hi; ++u) s[u] = op.combine(t2[u], s[u]);
    m.add_ops(hi - lo);
  });
  if (observer) observer("(f) final result", {{"s", s}});
  sched.commit();

  // Copy out in index order (uncounted).
  std::vector<V> out(n_nodes);
  detail::arrange(d, s.data(), out.data());
  return out;
}

}  // namespace dc::core
