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
#pragma once

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
      const V& temp = *inbox.block(u);
      if (dc::bits::get(u, i) == 1) {
        // Partner precedes u in label order: temp ⊕ own, and fold into s.
        s[u] = op.combine(temp, s[u]);
        t[u] = op.combine(temp, t[u]);
        m.add_ops(2);
      } else {
        t[u] = op.combine(t[u], temp);
        m.add_ops(1);
      }
    });
  }
  sched.commit();
  return out;
}

}  // namespace dc::core
