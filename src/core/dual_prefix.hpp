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
// compiled replay, each in-cluster pass is one sweep
// (ObliviousSection::exchange_compute_fused) over equal blocks of whole
// clusters, with no comm plane materialized: every block is seeded and
// run through all n-1 steps while it sits in cache
// (detail::cube_prefix_tile: the u64-sum kernel
// sim::simd::cube_prefix_steps for Plus<u64>, the reference
// detail::cube_prefix_butterfly for every other monoid). The sweep runs
// inside the pass's first fused cycle, and steps 2 .. n-1 book their
// cycles and compute steps around empty bodies, so Counters, edge loads,
// imbalance samples and the trace's event order match the unfused steps;
// only the cycle's trace span name differs (comm_cycle_fused).
// Recording, interpreted and faulted runs exchange through the width-1
// block plane and apply detail::cube_prefix_step per node. The two
// cross-edge exchanges always ship through the block plane; step 3 reads
// its totals straight from the first one's inbox, and steps 4 and 5 fold
// in one range sweep (step 5's compute step is booked with its op charge;
// an observer, which must see the state between them, gets two sweeps).
// The arrangement is loaded and unloaded in bulk and in place
// (detail::arrange: class 0 stays, class 1 transposes in cache-sized
// tiles); dual_prefix_index_of_node stays the per-node reference.
#pragma once

#include <algorithm>
#include <concepts>
#include <functional>
#include <memory>
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

/// Rearranges x in place between global index order and node order:
/// x[u] and x[dual_prefix_index_of_node(d, u)] trade places. The class-0
/// half stays put; the class-1 half is a 2^w x 2^w matrix that transposes
/// — node half + (M << w) + C (node ID M, cluster ID C) holds index
/// half + (C << w) + M — in square tiles that stay in cache, swapping each
/// tile with its mirror. The map is its own inverse, so the same call
/// loads inputs and unloads results.
template <typename V>
void arrange(const net::DualCube& d, V* x) {
  const unsigned w = d.order() - 1;
  const dc::u64 side = dc::u64{1} << w;
  V* const mat = x + (side << w);
  const dc::u64 tile = std::min<dc::u64>(side, 16);
  for (dc::u64 r0 = 0; r0 < side; r0 += tile) {
    for (dc::u64 c0 = r0; c0 < side; c0 += tile) {
      for (dc::u64 r = r0; r < r0 + tile; ++r) {
        for (dc::u64 c = c0 == r0 ? r + 1 : c0; c < c0 + tile; ++c)
          std::swap(mat[(r << w) + c], mat[(c << w) + r]);
      }
    }
  }
}

/// Clusters per block of a replayed cluster pass over values of up to 8
/// bytes: a class-0 block holds this many whole clusters and a class-1
/// block a strip of this many columns (clusters), fewer when a cluster is
/// narrower. A strip gathers into a contiguous scratch of one block: its
/// rows lie 2^(n-1) values apart, so a narrow strip worked in place would
/// crowd a few L1 sets.
inline constexpr dc::u64 kPrefixStripClusters = 8;

/// Shared by steps 1 and 3: an in-cluster Cube_prefix pass over the totals
/// `in` (ordered by node ID within each cluster), leaving the final totals
/// in `t` (which may be `in`) and the prefixes in `s`, seeded with the
/// totals when `inclusive` and with the identity otherwise. Costs n-1 comm
/// cycles and n-1 comp steps.
///
/// On compiled replay the pass is one sweep over equal blocks of whole
/// clusters, each seeded and run through all n-1 steps while it sits in
/// cache (cube_prefix_tile), inside the first step's fused cycle; steps
/// 2 .. n-1 book their cycles and compute steps around empty bodies. A
/// class-0 block is contiguous (node ID = low bits); a class-1 cluster is
/// a matrix column (node ID = middle bits), so its block is a strip of
/// columns that runs in place when it spans whole rows and through a
/// per-chunk scratch otherwise. Wider values run each class half as one
/// block, in place.
template <Monoid M>
void cluster_prefix(sim::Machine& m, sim::ObliviousSection& sched,
                    const net::DualCube& d, const M& op,
                    const typename M::value_type* in,
                    typename M::value_type* t, typename M::value_type* s,
                    bool inclusive) {
  using V = typename M::value_type;
  const unsigned w = d.order() - 1;
  const dc::u64 n = d.node_count();
  const dc::u64 half = n / 2;
  const auto seed = [&](const V* from, V* tt, V* ss, dc::u64 len) {
    if (from != tt) std::copy(from, from + len, tt);
    if (inclusive) {
      std::copy(tt, tt + len, ss);
    } else {
      std::fill(ss, ss + len, op.identity());
    }
  };
  if (!sched.replaying() || w == 0) {
    seed(in, t, s, n);
    const bool lossy = m.has_faults();
    const V none = op.identity();
    for (unsigned i = 0; i < w; ++i) {
      auto inbox = sched.exchange_blocks<V>(
          1, [&](net::NodeId u) { return d.cluster_neighbor(u, i); },
          sim::PlaneSrc<V>{t, 1});
      m.compute_step([&](net::NodeId u) {
        // Bit i of u's node ID is the flipped label bit of this exchange.
        const bool high = dc::bits::get(u, (u < half ? 0u : w) + i) == 1;
        m.add_ops(cube_prefix_step(op, high,
                                   received_or(inbox, u, lossy, none), t[u],
                                   s[u]));
      });
    }
    return;
  }
  // Strips pay for values of up to 8 bytes, whose steps cost a few cycles
  // per node and wait on memory. A wider value's combine costs more than
  // moving the value through the scratch (a Mat2 pass ran slower in
  // strips than in place), so each class half then runs as one tile.
  const dc::u64 side = dc::u64{1} << w;
  const dc::u64 cols =
      sizeof(V) <= 8 ? std::min(side, kPrefixStripClusters) : side;
  const dc::u64 block = side * cols;
  sched.exchange_compute_fused(
      1, static_cast<std::size_t>(n / block),
      [&](std::size_t b_lo, std::size_t b_hi) {
        std::unique_ptr<V[]> strip;  // t then s of one class-1 strip
        for (dc::u64 lo = b_lo * block; lo < b_hi * block; lo += block) {
          if (lo < half || cols == side) {
            seed(in + lo, t + lo, s + lo, block);
            cube_prefix_tile(op, t, s, lo, lo + block, lo < half ? 1 : side,
                             w);
            continue;
          }
          // A strip narrower than a row: its rows are kPrefixStripClusters
          // values each, a constant length the copies unroll.
          constexpr dc::u64 kCols = kPrefixStripClusters;
          if (!strip) strip = std::make_unique_for_overwrite<V[]>(2 * block);
          V* const st = strip.get();
          V* const ss = st + block;
          const dc::u64 c0 = (lo - half) >> w;  // the strip's first column
          for (dc::u64 r = 0; r < side; ++r)
            std::copy_n(in + half + (r << w) + c0, kCols, st + r * kCols);
          seed(st, st, ss, block);
          cube_prefix_tile(op, st, ss, 0, block, kCols, w);
          for (dc::u64 r = 0; r < side; ++r) {
            const dc::u64 at = half + (r << w) + c0;
            std::move(st + r * kCols, st + (r + 1) * kCols, t + at);
            std::move(ss + r * kCols, ss + (r + 1) * kCols, s + at);
          }
        }
        m.add_ops(w * cube_prefix_step_ops((b_hi - b_lo) * block));
      });
  for (unsigned i = 1; i < w; ++i)
    sched.exchange_compute_fused(1, 1, [](std::size_t, std::size_t) {});
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

  // Load the arrangement (uncounted data placement): node u holds data[u'].
  std::vector<V> t = data;
  detail::arrange(d, t.data());
  if (observer) observer("(a) original data distribution", {{"c", t}});

  // All 2n cycles (two cluster passes + two cross-edge exchanges) share one
  // compiled schedule keyed by the dual-cube order; neither the monoid nor
  // the inclusive flag changes any destination.
  sim::ObliviousSection sched(m, "dual_prefix", {d.order()});
  const auto cross = [&](net::NodeId u) { return d.cross_neighbor(u); };

  // Step 1: prefix inside every cluster (diminished when tag = 0; the rest
  // of the algorithm only prepends totals of *preceding* nodes, so the
  // inclusive/diminished choice is decided entirely here).
  std::vector<V> s(n_nodes);
  detail::cluster_prefix(m, sched, d, op, t.data(), t.data(), s.data(),
                         inclusive);
  if (observer) observer("(b) prefix inside cluster", {{"t", t}, {"s", s}});

  // Step 2: exchange cluster totals over the cross-edges. Step 3: the
  // diminished prefix of those totals inside every cluster; t' lands in t,
  // whose step-1 totals are spent. Replay reads the totals straight from
  // the inbox. The other paths copy them into t (the identity where a
  // message was lost) and free the inbox first, since the pass's own
  // exchanges would otherwise take a second plane.
  const auto s2 = std::make_unique_for_overwrite<V[]>(n_nodes);
  const bool lossy = m.has_faults();
  const V none = op.identity();
  {
    auto inbox =
        sched.exchange_blocks<V>(1, cross, sim::PlaneSrc<V>{t.data(), 1});
    const V* in = inbox.data();
    if (observer) {
      observer("(c) exchange t via cross-edge",
               {{"temp", std::vector<V>(in, in + n_nodes)}});
    }
    if (!sched.replaying()) {
      for (std::size_t u = 0; u < n_nodes; ++u)
        t[u] = detail::received_or(inbox, u, lossy, none);
      inbox = {};
      in = t.data();
    }
    detail::cluster_prefix(m, sched, d, op, in, t.data(), s2.get(), false);
  }
  if (observer) {
    observer("(d) prefix inside cluster over totals",
             {{"t'", t},
              {"s'", std::vector<V>(s2.get(), s2.get() + n_nodes)}});
  }

  // Step 4: route each node's same-class preceding-cluster total back to it
  // and fold it in on the left. Step 5: class-1 nodes prepend the class-0
  // grand total, their own t'. One sweep applies both unless an observer
  // must see the state between them; step 5's compute step is booked with
  // its op charge either way. A machine with faults attached, which never
  // replays, first copies the inbox over the spent s' with the identity
  // where a message was lost.
  {
    auto inbox =
        sched.exchange_blocks<V>(1, cross, sim::PlaneSrc<V>{s2.get(), 1});
    const V* recv = inbox.data();
    if (lossy) {
      for (std::size_t u = 0; u < n_nodes; ++u)
        s2[u] = detail::received_or(inbox, u, lossy, none);
      recv = s2.get();
    }
    const bool split = static_cast<bool>(observer);
    m.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
      const std::size_t mid = split ? hi : std::clamp(half, lo, hi);
      for (std::size_t u = lo; u < mid; ++u) s[u] = op.combine(recv[u], s[u]);
      for (std::size_t u = mid; u < hi; ++u)
        s[u] = op.combine(t[u], op.combine(recv[u], s[u]));
      m.add_ops(hi - lo);
    });
  }
  if (observer) observer("(e) fold preceding same-class totals", {{"s", s}});
  m.compute_step_streamed([&](std::size_t, std::size_t hi) {
    if (observer) {
      for (std::size_t u = half; u < hi; ++u) s[u] = op.combine(t[u], s[u]);
    }
    m.add_ops(hi - half);
  });
  if (observer) observer("(f) final result", {{"s", s}});
  sched.commit();

  // Unload in index order (uncounted).
  detail::arrange(d, s.data());
  return s;
}

}  // namespace dc::core
