// Algorithm 1 of the paper: parallel prefix computation on the hypercube.
//
// An ascend algorithm: each node keeps a running subcube total `t` and a
// running prefix `s`, and exchanges `t` with its dimension-i neighbor for
// i = 0 .. d-1. After dimension i, t[u] is the ⊕ of the inputs over u's
// 2^(i+1)-node aligned block and s[u] is u's prefix within that block.
//
// Operands are always combined in label order (lower-labeled operand on the
// left), so any associative ⊕ works — commutativity is never used.
//
// Cost: d communication steps and d computation steps on Q_d.
//
// This header is the one home of Algorithm 1's step, which Algorithm 2
// runs twice inside every cluster: the per-node combine rule
// (detail::cube_prefix_step), both fused kernels (cube_prefix_butterfly on
// per-node totals, cube_prefix_compact on one total per subcube), the
// tile that runs all of a pass's steps at once (cube_prefix_tile: the
// butterfly step by step, or the u64-sum vector kernel
// sim::simd::cube_prefix_steps that matches it bit for bit) and the op
// charge they share. Every engine applies the step through these
// definitions, so operand order and op charges are written once.
#pragma once

#include <type_traits>
#include <vector>

#include "core/ops.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/hypercube.hpp"

namespace dc::core {

/// Per-node output of a prefix pass: the block total `t` and the prefix `s`.
template <typename V>
struct PrefixOutput {
  std::vector<V> total;
  std::vector<V> prefix;
};

namespace detail {

/// One node's Cube_prefix computation step after exchanging t with the
/// partner across the step's dimension: `recv` is the partner's t, and
/// `high` says the node's label bit for that dimension is 1, i.e. the
/// partner precedes it in label order. The high side folds the partner's
/// total into both s and t (recv ⊕ own); the low side only into t
/// (own ⊕ recv). Returns the operator applications made, for add_ops.
template <Monoid M>
unsigned cube_prefix_step(const M& op, bool high,
                          const typename M::value_type& recv,
                          typename M::value_type& t,
                          typename M::value_type& s) {
  if (high) {
    s = op.combine(recv, s);
    t = op.combine(recv, t);
    return 2;
  }
  t = op.combine(t, recv);
  return 1;
}

/// Operator applications one Cube_prefix step over `nodes` nodes is
/// charged: 2 on each high partner plus 1 on each low one. The fused
/// kernels make fewer combines and charge this, so Counters do not depend
/// on the path that ran the step.
constexpr dc::u64 cube_prefix_step_ops(dc::u64 nodes) { return nodes / 2 * 3; }

/// One Cube_prefix exchange + computation step, fused, over nodes
/// [lo, hi): each group of 2 * stride holds the exchanging pairs
/// (g + j, g + j + stride). Both partners' new t is t_lo ⊕ t_hi (the low
/// side computes own ⊕ received, the high side received ⊕ own), so one
/// combine serves both, and only the high side folds its prefix:
/// s_hi = t_lo ⊕ s_hi. Operand order is kept, so non-commutative monoids
/// are safe. Callers charge cube_prefix_step_ops. The flat engine's
/// replayed cluster passes run this kernel through cube_prefix_tile: step
/// 2's cross-edge exchange and the Figure 3 observer read a per-node t.
/// The sharded passes, which read only one total per cluster, run
/// cube_prefix_compact instead.
template <Monoid M>
void cube_prefix_butterfly(const M& op, typename M::value_type* t,
                           typename M::value_type* s, dc::u64 lo, dc::u64 hi,
                           dc::u64 stride) {
  using V = typename M::value_type;
  for (dc::u64 g = lo; g < hi; g += 2 * stride) {
    V* const tl = t + g;
    V* const th = tl + stride;
    V* const sh = s + g + stride;
    for (dc::u64 j = 0; j < stride; ++j) {
      const V c = op.combine(tl[j], th[j]);
      sh[j] = op.combine(tl[j], sh[j]);
      tl[j] = c;
      th[j] = c;
    }
  }
}

/// Steps 0 .. steps-1 of Cube_prefix over one tile, nodes [lo, hi) of t
/// and s, in place: step i pairs the nodes unit·2^i apart (unit a power of
/// two, hi - lo a multiple of unit·2^steps). Plus<u64> runs the vector
/// kernel sim::simd::cube_prefix_steps where it covers the tile; every
/// other monoid, ISA and tile runs cube_prefix_butterfly step by step,
/// the reference the kernel matches bit for bit. Callers charge
/// cube_prefix_step_ops per step.
template <Monoid M>
void cube_prefix_tile(const M& op, typename M::value_type* t,
                      typename M::value_type* s, dc::u64 lo, dc::u64 hi,
                      dc::u64 unit, unsigned steps) {
  if constexpr (std::is_same_v<M, Plus<dc::u64>>) {
    if (sim::simd::cube_prefix_steps(t + lo, s + lo, hi - lo, unit, steps))
      return;
  }
  for (unsigned i = 0; i < steps; ++i)
    cube_prefix_butterfly(op, t, s, lo, hi, unit << i);
}

/// One Cube_prefix exchange + computation step on compact totals, in
/// place, over `len` nodes: `t` holds one total per `stride`-node group
/// (len / stride entries; at stride 1, the inputs). Each group pair's new
/// total is t_lo ⊕ t_hi, stored at the pair's index, and every node of
/// the high group folds the low total into its prefix: s = t_lo ⊕ s. On
/// return t holds one total per 2·stride-node group in its first
/// len / (2·stride) entries. This is cube_prefix_butterfly with the
/// per-node t copies collapsed — after dimension i every node of a
/// 2^(i+1)-node subcube holds the same total — so values and operand
/// order are the same. Callers charge cube_prefix_step_ops.
template <Monoid M>
void cube_prefix_compact(const M& op, typename M::value_type* t,
                         typename M::value_type* s, dc::u64 len,
                         dc::u64 stride) {
  using V = typename M::value_type;
  for (dc::u64 g = 0; g < len / stride; g += 2) {
    const V lo = t[g];
    V* const sh = s + (g + 1) * stride;
    for (dc::u64 j = 0; j < stride; ++j) sh[j] = op.combine(lo, sh[j]);
    t[g / 2] = op.combine(lo, t[g + 1]);
  }
}

}  // namespace detail

/// Runs Algorithm 1 on machine `m`, whose topology must be `q`. `c` holds
/// one input per node (index = node label). With `inclusive` true, the
/// returned prefix at node u is c[0] ⊕ ... ⊕ c[u]; otherwise the diminished
/// prefix c[0] ⊕ ... ⊕ c[u-1] (identity at node 0).
template <Monoid M>
PrefixOutput<typename M::value_type> cube_prefix(
    sim::Machine& m, const net::Hypercube& q, const M& op,
    const std::vector<typename M::value_type>& c, bool inclusive) {
  using V = typename M::value_type;
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&q),
             "machine must run on the given hypercube");
  DC_REQUIRE(c.size() == q.node_count(), "one input per node required");

  PrefixOutput<V> out{c, inclusive ? c : std::vector<V>(c.size(), op.identity())};
  auto& t = out.total;
  auto& s = out.prefix;

  // The exchange pattern per dimension is a fixed pairing, so the whole
  // run compiles to one cached schedule per cube order.
  sim::ObliviousSection sched(m, "cube_prefix", {q.dimensions()});
  for (unsigned i = 0; i < q.dimensions(); ++i) {
    auto inbox = sched.exchange_blocks<V>(
        1, [&](net::NodeId u) { return q.neighbor(u, i); },
        sim::PlaneSrc<V>{t.data(), 1});
    m.compute_step([&](net::NodeId u) {
      m.add_ops(detail::cube_prefix_step(op, dc::bits::get(u, i) == 1,
                                         *inbox.block(u), t[u], s[u]));
    });
  }
  sched.commit();
  return out;
}

}  // namespace dc::core
