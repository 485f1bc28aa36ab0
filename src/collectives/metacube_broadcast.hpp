// One-to-all broadcast on the metacube MC(k, m) — the cluster technique
// generalized to 2^k classes, showing the paper's technique #1 scales past
// the dual-cube (k = 1 reproduces dual_broadcast's 2n = 2m+2 schedule).
//
// Schedule: visit the classes in Gray-code order g_0, g_1, ..., then fan
// out over the class bits:
//
//   for each class g_t:
//     (a) every current holder hops one class bit to enter class g_t
//         (1 cycle; skipped at t = 0 where the root walks instead);
//     (b) binomial broadcast over field g_t's m cube dimensions
//         (m cycles) — legal because every holder is now in class g_t;
//   finally, k cycles of recursive doubling over the class bits cover the
//   remaining class values.
//
// Total: at most popcount-walk(root) + 2^k * m + (2^k - 1) + k cycles;
// for k = 1 and a root already in class g_0 this is 2m + 2 = 2n, the
// diameter-optimal dual-cube schedule.
#pragma once

#include <optional>
#include <vector>

#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "topology/hamiltonian.hpp"  // gray_code
#include "topology/metacube.hpp"

namespace dc::collectives {

/// Broadcasts `value` from `root` to every node of MC(k, m). Returns the
/// per-node values.
template <typename V>
std::vector<V> metacube_broadcast(sim::Machine& m, const net::Metacube& mc,
                                  net::NodeId root, const V& value) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&mc),
             "machine must run on the given metacube");
  DC_REQUIRE(root < mc.node_count(), "root out of range");
  const std::size_t n_nodes = mc.node_count();
  const unsigned class_lo = mc.m() * static_cast<unsigned>(dc::bits::pow2(mc.k()));
  const dc::u64 classes = dc::bits::pow2(mc.k());

  std::vector<std::uint8_t> have(n_nodes, 0);
  have[root] = 1;

  // The hop pattern is a pure function of (topology, root): `have` evolves
  // deterministically from the root, so the whole broadcast is oblivious
  // and compiles to one schedule per (k, m, root).
  sim::ObliviousSection sched(m, "metacube_broadcast",
                              {mc.k(), mc.m(), root});

  // Deliver `dest_of`-selected single hops and mark the receivers. On
  // replay dest_of is never consulted — receivers are marked straight off
  // the compiled cycle's presence map.
  const auto hop = [&](auto&& dest_of) {
    auto inbox = sched.exchange<V>(std::forward<decltype(dest_of)>(dest_of),
                                   [&](net::NodeId) { return value; });
    m.for_each_node([&](net::NodeId u) {
      if (inbox.has(u)) have[u] = 1;
    });
  };

  // Move every holder's class value toward `target` one bit at a time.
  // All holders share the same class at the call, so they all flip the
  // same bits in lockstep (distinct labels -> no port conflicts).
  const auto walk_class = [&](dc::u64 from, dc::u64 target) {
    dc::u64 cur = from;
    while (cur != target) {
      const unsigned bit = dc::bits::lowest_set(cur ^ target);
      hop([&](net::NodeId u) -> net::NodeId {
        if (!have[u] || mc.class_of(u) != cur) return sim::kNoSend;
        return dc::bits::flip(u, class_lo + bit);
      });
      cur = dc::bits::flip(cur, bit);
    }
  };

  dc::u64 current_class = mc.class_of(root);
  for (dc::u64 t = 0; t < classes; ++t) {
    const dc::u64 g = net::gray_code(t);
    walk_class(current_class, g);
    current_class = g;
    // Binomial broadcast over field g. The holders of class g form an
    // aligned set; relative addressing keys off the root's field value so
    // coverage doubles per cycle with unique receivers.
    const unsigned base = mc.field_offset(g);
    const dc::u64 anchor = mc.field_of(root, g);
    for (unsigned i = 0; i < mc.m(); ++i) {
      hop([&](net::NodeId u) -> net::NodeId {
        if (!have[u] || mc.class_of(u) != g) return sim::kNoSend;
        const dc::u64 rel = mc.field_of(u, g) ^ anchor;
        if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
        return dc::bits::flip(u, base + i);
      });
    }
  }

  // Recursive doubling over the class bits.
  for (unsigned i = 0; i < mc.k(); ++i) {
    hop([&](net::NodeId u) -> net::NodeId {
      if (!have[u]) return sim::kNoSend;
      const dc::u64 rel = mc.class_of(u) ^ current_class;
      if (rel >= dc::bits::pow2(i)) return sim::kNoSend;
      return dc::bits::flip(u, class_lo + i);
    });
  }
  sched.commit();

  std::vector<V> out;
  out.reserve(n_nodes);
  for (net::NodeId u = 0; u < n_nodes; ++u) {
    DC_CHECK(have[u], "metacube broadcast failed to reach node " << u);
    out.push_back(value);
  }
  return out;
}

}  // namespace dc::collectives
