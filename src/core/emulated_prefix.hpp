// Ablation baseline: naive emulation of the hypercube prefix (Algorithm 1)
// on the dual-cube, *without* the paper's cluster technique.
//
// The recursive presentation makes D_n look like Q_(2n-1) with most links
// missing; Algorithm 1 still runs if every dimension exchange is performed
// with the Section 6 relay — dimension_exchange_blocks at width 1 (3
// cycles for the 2n-2 link-less dimensions, 1 cycle for dimension 0):
// 6n-5 communication cycles versus the cluster technique's 2n. This is
// exactly the ~3x emulation overhead the paper's concluding section warns
// about, and the reason Algorithm 2 exists.
//
// Note the emulated prefix orders data by *recursive-presentation label*,
// not by the arrangement of Algorithm 2; it is validated against a
// sequential scan in that same order.
#pragma once

#include <vector>

#include "core/cube_prefix.hpp"
#include "core/dimension_exchange.hpp"
#include "core/ops.hpp"

namespace dc::core {

/// Inclusive prefix over `c` (index = recursive-presentation label) by
/// emulating the ascend hypercube algorithm on D_n. The whole 6n-5-cycle
/// run goes through one oblivious section keyed by the order, so after the
/// first run the full emulation — every relayed dimension included —
/// replays as compiled permutations.
template <Monoid M>
std::vector<typename M::value_type> emulated_prefix(
    sim::Machine& m, const net::RecursiveDualCube& r, const M& op,
    const std::vector<typename M::value_type>& c) {
  using V = typename M::value_type;
  DC_REQUIRE(c.size() == r.node_count(), "one input per node required");
  sim::ObliviousSection sched(m, "emulated_prefix", {r.order()});
  std::vector<V> t = c;
  std::vector<V> s = c;
  // Under FaultPolicy::kDegrade a lost block folds as the identity, as in
  // the flat prefix (detail::received_or).
  const bool lossy = m.has_faults();
  const V none = op.identity();
  for (unsigned i = 0; i < r.label_bits(); ++i) {
    const auto ex = dimension_exchange_blocks(m, sched, r, i, t, 1);
    m.compute_step([&](net::NodeId u) {
      m.add_ops(detail::cube_prefix_step(
          op, dc::bits::get(u, i) == 1,
          lossy && !ex.has(u) ? none : *ex.recv(u), t[u], s[u]));
    });
  }
  sched.commit();
  return s;
}

}  // namespace dc::core
