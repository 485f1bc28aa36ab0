// All-to-one reduction and all-reduce on the dual-cube, mirrors of the
// broadcast schedule (see broadcast.hpp). Both cost 2n communication
// cycles. The combination order is deterministic but not the global index
// order, so these collectives require a commutative monoid (the prefix
// algorithms in src/core do NOT — see ops.hpp).
#pragma once

#include <optional>
#include <vector>

#include "core/ops.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"

namespace dc::collectives {

/// Reduces one value per node to `root`; returns the total (⊕ over all
/// nodes, commutative). Costs 2n comm cycles and 2n comp steps.
template <dc::core::Monoid M>
typename M::value_type dual_reduce(sim::Machine& m, const net::DualCube& d,
                                   net::NodeId root, const M& op,
                                   std::vector<typename M::value_type> values) {
  using V = typename M::value_type;
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(root < d.node_count(), "root out of range");
  DC_REQUIRE(values.size() == d.node_count(), "one value per node required");
  const unsigned w = d.order() - 1;
  const auto root_addr = d.decode(root);

  // The 2n-cycle fold pattern is fixed by (order, root) — one compiled
  // schedule per root, shared with every later reduce to that root.
  sim::ObliviousSection sched(m, "dual_reduce", {root});

  // Phase 1 (mirror of broadcast phase 4): every root-class node folds its
  // value into its cross partner.
  {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          if (d.node_class(u) != root_addr.cls) return sim::kNoSend;
          return d.cross_neighbor(u);
        },
        sim::PlaneSrc<V>{values.data(), 1});
    m.compute_step([&](net::NodeId u) {
      if (inbox.has(u)) {
        values[u] = op.combine(values[u], *inbox.block(u));
        m.add_ops(1);
      }
    });
  }

  // Phase 2 (mirror of phase 3): binomial reduce inside every foreign-class
  // cluster toward the node whose node-ID equals the root's cluster ID.
  for (unsigned i = w; i-- > 0;) {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          const auto a = d.decode(u);
          if (a.cls == root_addr.cls) return sim::kNoSend;
          const dc::u64 rel = a.node ^ root_addr.cluster;
          if (rel < dc::bits::pow2(i) || rel >= dc::bits::pow2(i + 1))
            return sim::kNoSend;
          return d.cluster_neighbor(u, i);
        },
        sim::PlaneSrc<V>{values.data(), 1});
    m.compute_step([&](net::NodeId u) {
      if (inbox.has(u)) {
        values[u] = op.combine(values[u], *inbox.block(u));
        m.add_ops(1);
      }
    });
  }

  // Phase 3 (mirror of phase 2): every foreign-class collector crosses back
  // into the root's cluster.
  {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          const auto a = d.decode(u);
          if (a.cls == root_addr.cls) return sim::kNoSend;
          if (a.node != root_addr.cluster) return sim::kNoSend;
          return d.cross_neighbor(u);
        },
        sim::PlaneSrc<V>{values.data(), 1});
    // The receiver's own contribution already left in phase 1, so this is a
    // replacement, not a combine (avoids double counting).
    m.for_each_node([&](net::NodeId u) {
      if (inbox.has(u)) values[u] = *inbox.block(u);
    });
  }

  // Phase 4 (mirror of phase 1): binomial reduce inside the root's cluster.
  for (unsigned i = w; i-- > 0;) {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          const auto a = d.decode(u);
          if (a.cls != root_addr.cls || a.cluster != root_addr.cluster)
            return sim::kNoSend;
          const dc::u64 rel = a.node ^ root_addr.node;
          if (rel < dc::bits::pow2(i) || rel >= dc::bits::pow2(i + 1))
            return sim::kNoSend;
          return d.cluster_neighbor(u, i);
        },
        sim::PlaneSrc<V>{values.data(), 1});
    m.compute_step([&](net::NodeId u) {
      if (inbox.has(u)) {
        values[u] = op.combine(values[u], *inbox.block(u));
        m.add_ops(1);
      }
    });
  }
  sched.commit();
  return values[root];
}

/// All-reduce: every node ends with the ⊕ of all values (commutative ⊕).
/// Cluster technique, 2n comm cycles:
///   1. in-cluster all-reduce by n-1 full dimension exchanges;
///   2. cross exchange of cluster totals;
///   3. in-cluster all-reduce of the received foreign totals — every node
///      now knows the foreign class's grand total;
///   4. one more cross exchange hands every node its *own* class's grand
///      total (computed at its partner in step 3); combine the two.
template <dc::core::Monoid M>
std::vector<typename M::value_type> dual_allreduce(
    sim::Machine& m, const net::DualCube& d, const M& op,
    std::vector<typename M::value_type> values) {
  using V = typename M::value_type;
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&d),
             "machine must run on the given dual-cube");
  DC_REQUIRE(values.size() == d.node_count(), "one value per node required");
  const unsigned w = d.order() - 1;

  // Root-free: the 2n cycles depend on the order alone, so every allreduce
  // on this dual-cube replays one schedule.
  sim::ObliviousSection sched(m, "dual_allreduce", {});

  const auto cluster_allreduce = [&](std::vector<V>& vals) {
    for (unsigned i = 0; i < w; ++i) {
      auto inbox = sched.exchange_blocks<V>(
          1,
          [&](net::NodeId u) { return d.cluster_neighbor(u, i); },
          sim::PlaneSrc<V>{vals.data(), 1});
      m.compute_step([&](net::NodeId u) {
        vals[u] = op.combine(vals[u], *inbox.block(u));
        m.add_ops(1);
      });
    }
  };

  cluster_allreduce(values);  // every node: own cluster total

  std::vector<V> foreign(values.size(), op.identity());
  {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) { return d.cross_neighbor(u); },
        sim::PlaneSrc<V>{values.data(), 1});
    m.for_each_node([&](net::NodeId u) { foreign[u] = *inbox.block(u); });
  }

  cluster_allreduce(foreign);  // every node: foreign class grand total

  {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) { return d.cross_neighbor(u); },
        sim::PlaneSrc<V>{foreign.data(), 1});
    // *inbox.block(u) is u's own class's grand total.
    m.compute_step([&](net::NodeId u) {
      values[u] = op.combine(*inbox.block(u), foreign[u]);
      m.add_ops(1);
    });
  }
  sched.commit();
  return values;
}

/// Recursive-halving reduce to `root` on Q_d (baseline): d cycles.
template <dc::core::Monoid M>
typename M::value_type cube_reduce(sim::Machine& m, const net::Hypercube& q,
                                   net::NodeId root, const M& op,
                                   std::vector<typename M::value_type> values) {
  using V = typename M::value_type;
  DC_REQUIRE(root < q.node_count(), "root out of range");
  DC_REQUIRE(values.size() == q.node_count(), "one value per node required");
  sim::ObliviousSection sched(m, "cube_reduce", {root});
  for (unsigned i = q.dimensions(); i-- > 0;) {
    auto inbox = sched.exchange_blocks<V>(
        1,
        [&](net::NodeId u) -> net::NodeId {
          const dc::u64 rel = u ^ root;
          if (rel < dc::bits::pow2(i) || rel >= dc::bits::pow2(i + 1))
            return sim::kNoSend;
          return q.neighbor(u, i);
        },
        sim::PlaneSrc<V>{values.data(), 1});
    m.compute_step([&](net::NodeId u) {
      if (inbox.has(u)) {
        values[u] = op.combine(values[u], *inbox.block(u));
        m.add_ops(1);
      }
    });
  }
  sched.commit();
  return values[root];
}

}  // namespace dc::collectives
