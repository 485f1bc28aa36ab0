// Algorithm 3 of the paper: bitonic sorting on the dual-cube, expressed on
// the recursive presentation (Section 4).
//
// The paper's recursion — sort the four D_(k-1) copies with alternating
// directions, then two descend passes — flattens into an SPMD iteration.
// For level k = 1 .. n (level k sorts every aligned block of 2^(2k-1)
// labels, i.e. every D_k sub-dual-cube, simultaneously):
//
//   * first pass, dimensions j = 2k-3 .. 0 (empty at k = 1): merges each
//     *half* of a D_k block; direction given by bit 2k-2 (ascending in the
//     lower half, descending in the upper), so the block becomes bitonic;
//   * second pass, dimensions j = 2k-2 .. 0: merges the whole block;
//     direction given by the block's tag.
//
// The tag of a level-k block is bit 2k-1 of the node label — the parity of
// the block's index among its parent's four children, matching the paper's
// D_sort(D^00,0); D_sort(D^01,1); D_sort(D^10,0); D_sort(D^11,1) recursion —
// except at the top level k = n, where it is the caller's direction.
// dual_bitonic_level runs one level k; the self-healing sort
// (core/ft_dual_sort.hpp) runs it as one recovery phase per level.
//
// Every dimension step is an exchange with partner u ^ (1<<j) — 1 cycle at
// j = 0, 3 otherwise (dimension_exchange.hpp has the relay schedule) — and
// one parallel comparison step.
//
// Cost on D_n (Theorem 2): T_comm = 6n² − 7n + 2 ≤ 6n² communication
// cycles and T_comp = 2n² − n ≤ 2n² comparison steps.
//
// dual_bitonic_network is the one schedule, over a node-major plane of
// fixed-width blocks with a pluggable combine rule. dual_sort runs
// it at width 1 with scalar compare-exchange; block_sort.hpp runs it at
// width m with sorted-block merge-split (the classic result that any
// sorting network sorts blocks when compare-exchange is replaced by
// merge-split); ft_dual_sort.hpp runs it over missing-aware keys under a
// sim::ProxyScope.
//
// Execution. All 6n² − 7n + 2 cycles run through one ObliviousSection. On
// compiled replay, each dimension step is booked through
// ObliviousSection::exchange_compute_fused — its 1 or 3 relay cycles and
// its compare step — with no comm plane materialized:
//
//   * dual_sort over integral keys (unobserved) sorts in place with the
//     vector kernels of sim/simd.hpp. Passes 1 .. 4 (levels 1 and 2 and
//     level 3's half-merge, the first 10 steps) run as one sweep of
//     sim::simd::bitonic_tile_sort over 16-node register tiles. Each later
//     merge pass runs its steps j >= 4 three at a time through
//     sim::simd::bitonic_steps, each run one sweep split by the run's
//     bases (disjoint sets of 2, 4 or 8 nodes that the run's steps stay
//     inside), then steps 3 .. 0 together in one sweep over 16-node tiles.
//     A sweep runs in its first step; the other steps book their cycles
//     and compare steps around an empty body. A replayed RD_7 sort makes
//     28 sweeps for its 91 steps.
//   * Every other run (block_sort's merge-split, non-integral keys,
//     observed runs) makes one in-place sweep per dimension step over the
//     step's N/2 pairs of partners, split by pair: the combine's pair form
//     settles both blocks of a pair at once, reading the partner's block
//     straight from the plane. No second plane is allocated.
//
// Counters, edge loads, imbalance samples and observer snapshots match the
// relayed step; only the cycles' trace span name differs
// (comm_cycle_fused). Recording, interpreted, proxied and faulted runs
// relay through the block plane (dimension_exchange_blocks) and compare
// per node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dimension_exchange.hpp"
#include "sim/machine.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::core {

namespace detail {

/// The direction of one merge pass of Algorithm 3, in the form
/// sim::simd::bitonic_steps takes: node u ascends iff
/// ((u & dir_mask) == 0) != descending.
struct PassDirection {
  dc::u64 dir_mask;
  bool descending;
};

/// The direction of level k's half-merge or full merge on D_n. A
/// half-merge ascends in the lower half of each D_k block (bit 2k-2
/// clear); a full merge follows the block's tag (bit 2k-1), or the
/// caller's direction at the top level.
inline PassDirection pass_direction(unsigned k, unsigned n, bool half_merge,
                                    bool descending) {
  if (half_merge) return {dc::u64{1} << (2 * k - 2), false};
  if (k == n) return {0, descending};
  return {dc::u64{1} << (2 * k - 1), false};
}

/// The direction rule of Algorithm 3: true iff node u keeps the min side
/// at dimension j of level k on D_n.
inline bool bitonic_keep_min(net::NodeId u, unsigned j, unsigned k,
                             unsigned n, bool half_merge, bool descending) {
  const PassDirection d = pass_direction(k, n, half_merge, descending);
  const bool ascending = ((u & d.dir_mask) == 0) != d.descending;
  return ascending == (dc::bits::get(u, j) == 0);
}

/// Relay cycles of dimension step j: dimension 0 is a direct link, every
/// other dimension a 3-cycle relay (dimension_exchange.hpp).
inline std::size_t relay_cycles(unsigned j) { return j == 0 ? 1 : 3; }

/// dual_sort's combine: compare-exchange of one key under the order
/// `Less`. Position-stable on ties: a node takes the other element only
/// when it is strictly better for its side, so on equal keys each partner
/// keeps its own element and the output is a permutation of the input
/// records. The pair form swaps the partners only when they are out of
/// order, so ties stay put there too.
template <typename Less = std::less<>>
struct CompareExchange {
  template <typename Key>
  void operator()(net::NodeId /*u*/, bool keep_min, const Key* own,
                  const Key* other, Key* out) const {
    const bool take = keep_min ? Less{}(*other, *own) : Less{}(*own, *other);
    *out = take ? *other : *own;
  }
  template <typename Key>
  void pair(bool keep_min, Key* lo, Key* hi,
            std::vector<Key>& /*scratch*/) const {
    Key* const min_side = keep_min ? lo : hi;
    Key* const max_side = keep_min ? hi : lo;
    if (Less{}(*max_side, *min_side)) std::swap(*min_side, *max_side);
  }
};

/// One merge pass of Algorithm 3 on compiled replay, in place over
/// integral `keys`: dimension steps j = t-1 .. 0 in direction `d`, in the
/// runs sim::simd::bitonic_run_bottom picks — three steps at a time down to
/// step 4, then steps 3 .. 0 (those below t) on 16-node register tiles.
/// Each run is one sweep in its first step, split by the run's bases, and
/// charges the whole run's ops (one per node per step); the run's other
/// steps book their cycles and compare steps around an empty body.
template <typename Key>
void bitonic_pass_in_place(sim::Machine& m, sim::ObliviousSection& sched,
                           std::vector<Key>& keys, unsigned t,
                           PassDirection d) {
  const std::size_t nodes = keys.size();
  for (unsigned end = t; end > 0;) {
    const unsigned top = end - 1;
    const unsigned bottom = sim::simd::bitonic_run_bottom(top);
    const unsigned steps = end - bottom;
    sched.exchange_compute_fused(
        relay_cycles(top), nodes >> steps,
        [&](std::size_t q_lo, std::size_t q_hi) {
          sim::simd::bitonic_steps(keys.data(), top, bottom, q_lo, q_hi,
                                   d.dir_mask, d.descending);
          m.add_ops(((q_hi - q_lo) << steps) * steps);
        });
    for (unsigned j = top; j-- > bottom;)
      sched.exchange_compute_fused(relay_cycles(j), 1,
                                   [](std::size_t, std::size_t) {});
    end = bottom;
  }
}

/// Passes 1 .. b of Algorithm 3 on compiled replay (b <= 4; the passes
/// of levels 1 and 2 and level 3's half-merge), in place over integral
/// `keys` as one sweep in the first step's fused cycle:
/// sim::simd::bitonic_tile_sort runs all b(b+1)/2 steps on each 16-node
/// register tile, split by the groups of 2^b nodes it sorts, and charges
/// their ops (one per node per step). The other steps book their cycles
/// and compare steps around an empty body. Pass t < b is directed by
/// label bit t, which pass_direction gives every pass below the top level;
/// `last` directs pass b.
template <typename Key>
void bitonic_tile_sort_in_place(sim::Machine& m, sim::ObliviousSection& sched,
                                std::vector<Key>& keys, unsigned b,
                                PassDirection last) {
  const std::size_t nodes = keys.size();
  const std::size_t steps = std::size_t{b} * (b + 1) / 2;
  sched.exchange_compute_fused(
      relay_cycles(0), nodes >> b, [&](std::size_t q_lo, std::size_t q_hi) {
        sim::simd::bitonic_tile_sort(keys.data(), b, q_lo, q_hi,
                                     last.dir_mask, last.descending);
        m.add_ops(((q_hi - q_lo) << b) * steps);
      });
  for (unsigned t = 2; t <= b; ++t) {
    for (unsigned j = t; j-- > 0;)
      sched.exchange_compute_fused(relay_cycles(j), 1,
                                   [](std::size_t, std::size_t) {});
  }
}

/// The direction of merge pass t (1 .. 2n-1) of Algorithm 3 on D_n: pass
/// 2k-2 is level k's half-merge, pass 2k-1 its full merge.
inline PassDirection merge_pass_direction(unsigned t, unsigned n,
                                          bool descending) {
  return pass_direction(t / 2 + 1, n, t % 2 == 0, descending);
}

}  // namespace detail

/// Observer invoked after every dimension step with a phase label and the
/// current node-major plane (node u's block at index u*width). Drives the
/// Figures 5-6 reproduction.
template <typename V>
using DualSortObserver =
    std::function<void(const std::string& phase, const std::vector<V>& values)>;

/// Runs level k of the Algorithm-3 schedule over `plane`, where node u's
/// value is the width-sized stride `plane[u*width .. u*width+width)`: the
/// half-merge over dimensions j = 2k-3 .. 0 (none at k = 1), then the full
/// merge over j = 2k-2 .. 0. The combine has two forms, which may run
/// concurrently for distinct nodes or pairs:
///   * per node, `combine(u, keep_min, own, other, out)` writes node u's
///     min-side (keep_min) or max-side result (width elements) into
///     `out`, reading the `own` and `other` strides;
///   * per pair, `combine.pair(keep_min, lo, hi, scratch)` settles the
///     blocks of partners u and u + 2^j in place, lo (node u) taking the
///     min side iff keep_min, with `scratch` a vector it may grow and
///     reuse across the pairs of a sweep.
/// When `sched` replays, each dimension step is one fused in-place sweep
/// over its pairs (see the header). Otherwise it moves blocks through
/// dimension_exchange_blocks in `sched` and double-buffers the per-node
/// form through `next` (same size as `plane`; unused on replay). One
/// counted compare op per node per dimension step is charged here;
/// combine charges any further work.
template <typename V, typename Combine>
void dual_bitonic_level(sim::Machine& m, sim::ObliviousSection& sched,
                        const net::RecursiveDualCube& r, std::vector<V>& plane,
                        std::vector<V>& next, std::size_t width, unsigned k,
                        bool descending, Combine&& combine,
                        const DualSortObserver<V>& observer = {}) {
  DC_REQUIRE(sched.replaying() || next.size() == plane.size(),
             "the combine buffer must match the plane");
  const unsigned n = r.order();
  const auto step = [&](unsigned j, bool half_merge) {
    if (sched.replaying()) {
      // One in-place sweep over the step's N/2 pairs stands in for its
      // cycles and its compare step, split by pair as bitonic_steps splits
      // its bases: pair p is node u = ((p >> j) << (j+1)) | (p mod 2^j)
      // with its partner u + 2^j, and u keeps the min side iff the pass
      // ascends at u. Each pair reads the partner's block straight from
      // the plane — the block that the relay would have delivered.
      const std::size_t half = std::size_t{1} << j;
      const detail::PassDirection d =
          detail::pass_direction(k, n, half_merge, descending);
      sched.exchange_compute_fused(
          detail::relay_cycles(j), r.node_count() / 2,
          [&](std::size_t p_lo, std::size_t p_hi) {
            std::vector<V> scratch;
            for (std::size_t p = p_lo; p < p_hi; ++p) {
              const std::size_t u = ((p >> j) << (j + 1)) | (p & (half - 1));
              V* const lo = plane.data() + u * width;
              combine.pair(((u & d.dir_mask) == 0) != d.descending, lo,
                           lo + half * width, scratch);
            }
            m.add_ops(2 * (p_hi - p_lo));
          });
    } else {
      // Zero-copy: combine reads the received block straight out of the
      // exchange's inbox planes instead of a copied-out recv plane.
      const auto ex = dimension_exchange_blocks(m, sched, r, j, plane, width);
      m.compute_step([&](net::NodeId u) {
        combine(u,
                detail::bitonic_keep_min(u, j, k, n, half_merge, descending),
                plane.data() + u * width, ex.recv(u), next.data() + u * width);
        m.add_ops(1);
      });
      plane.swap(next);
    }
    if (observer)
      observer("level " + std::to_string(k) +
                   (half_merge ? " half-merge dim " : " full-merge dim ") +
                   std::to_string(j),
               plane);
  };
  for (unsigned j = 2 * k - 2; j-- > 0;) step(j, /*half_merge=*/true);
  for (unsigned j = 2 * k - 1; j-- > 0;) step(j, /*half_merge=*/false);
}

/// Runs the whole Algorithm-3 schedule over `plane` (levels 1 .. n of
/// dual_bitonic_level) with the combine rule and observer described there.
template <typename V, typename Combine>
void dual_bitonic_network(sim::Machine& m, const net::RecursiveDualCube& r,
                          std::vector<V>& plane, std::size_t width,
                          bool descending, Combine&& combine,
                          const DualSortObserver<V>& observer = {}) {
  DC_REQUIRE(&m.topology() == static_cast<const net::Topology*>(&r),
             "machine must run on the given recursive dual-cube");
  DC_REQUIRE(width >= 1, "block width must be >= 1");
  DC_REQUIRE(plane.size() == r.node_count() * width,
             "one width-sized block per node required");

  // The whole network — every relayed dimension exchange of every level —
  // is one compiled schedule per order: the dimension sequence is fixed
  // and neither the merge direction nor the width changes a destination.
  sim::ObliviousSection sched(m, "dual_bitonic_network", {r.order()});
  if constexpr (std::is_integral_v<V> &&
                std::is_same_v<std::remove_cvref_t<Combine>,
                               detail::CompareExchange<>>) {
    if (sched.replaying() && !observer) {
      // The compare-exchange of integral keys runs the register-blocked
      // vector kernels: passes 1 .. 4 in one tile sort, then up to three
      // dimension steps per sweep.
      DC_REQUIRE(width == 1, "compare-exchange sorts one key per node");
      const unsigned n = r.order();
      const unsigned tiled = std::min(2 * n - 1, sim::simd::kTileSortPasses);
      detail::bitonic_tile_sort_in_place(
          m, sched, plane, tiled,
          detail::merge_pass_direction(tiled, n, descending));
      for (unsigned t = tiled + 1; t <= 2 * n - 1; ++t) {
        detail::bitonic_pass_in_place(
            m, sched, plane, t, detail::merge_pass_direction(t, n, descending));
      }
      sched.commit();
      return;
    }
  }
  std::vector<V> next;  // only the per-node combine writes a second plane
  if (!sched.replaying()) next.resize(plane.size());
  for (unsigned k = 1; k <= r.order(); ++k)
    dual_bitonic_level(m, sched, r, plane, next, width, k, descending, combine,
                       observer);
  sched.commit();
}

/// Sorts `keys` (index = recursive-presentation node label) in place;
/// ascending iff !descending (the paper's tag: 0 = ascending).
/// Keys must be totally ordered by operator<. On equal keys each
/// compare-exchange partner keeps its own element, so records ordered by
/// one field come out as a permutation of the input records.
template <typename Key>
void dual_sort(sim::Machine& m, const net::RecursiveDualCube& r,
               std::vector<Key>& keys, bool descending = false,
               const DualSortObserver<Key>& observer = {}) {
  dual_bitonic_network(m, r, keys, 1, descending, detail::CompareExchange<>{},
                       observer);
}

}  // namespace dc::core
