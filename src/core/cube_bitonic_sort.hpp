// Batcher's bitonic sort on the hypercube (Section 5 of the paper) — the
// baseline the dual-cube sort is measured against.
//
// Iterative formulation of the classic recursion: for level k = 1 .. d,
// blocks of 2^k nodes are bitonic (each half sorted in opposite directions
// by the previous level) and are merged by a descend pass over dimensions
// k-1 .. 0. During level k < d the merge direction of a block is given by
// bit k of the node label, producing alternating ascending/descending
// blocks; the final level uses the caller's direction.
//
// Cost on Q_d: d(d+1)/2 communication steps and d(d+1)/2 comparison steps.
#pragma once

#include <vector>

#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/hypercube.hpp"

namespace dc::core {

namespace detail {

/// The direction rule of Batcher's sort on Q_d: true iff node u keeps the
/// min side at dimension j of level k. A level-k block merges ascending
/// iff bit k of u is clear, the last level (k = d) as the caller asked;
/// an ascending pair's u_j = 0 end keeps the min.
inline bool cube_bitonic_keep_min(net::NodeId u, unsigned j, unsigned k,
                                  unsigned d, bool descending) {
  const bool ascending = k == d ? !descending : dc::bits::get(u, k) == 0;
  return ascending == (dc::bits::get(u, j) == 0);
}

}  // namespace detail

/// Sorts `keys` (index = node label) in place; ascending iff !descending.
/// Keys must be totally ordered by operator<.
template <typename Key>
void cube_bitonic_sort(sim::Machine& m, const net::Hypercube& q,
                       std::vector<Key>& keys, bool descending = false) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&q),
             "machine must run on the given hypercube");
  DC_REQUIRE(keys.size() == q.node_count(), "one key per node required");
  const unsigned d = q.dimensions();

  // The d(d+1)/2 pairwise exchanges are fixed by the dimension sequence
  // alone (direction only affects which end keeps the minimum), so the
  // whole sorting network compiles to one cached schedule per cube order.
  sim::ObliviousSection sched(m, "cube_bitonic_sort", {d});
  for (unsigned k = 1; k <= d; ++k) {
    for (unsigned jj = k; jj-- > 0;) {
      const unsigned j = jj;
      auto inbox = sched.exchange_blocks<Key>(
          1, [&](net::NodeId u) { return q.neighbor(u, j); },
          sim::PlaneSrc<Key>{keys.data(), 1});
      m.compute_step([&](net::NodeId u) {
        const Key& other = *inbox.block(u);
        const bool keep_min =
            detail::cube_bitonic_keep_min(u, j, k, d, descending);
        const bool other_smaller = other < keys[u];
        if (keep_min == other_smaller) keys[u] = other;
        m.add_ops(1);
      });
    }
  }
  sched.commit();
}

}  // namespace dc::core
