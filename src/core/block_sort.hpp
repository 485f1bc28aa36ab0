// Future-work item 1 of the paper, sorting side: sort N*m keys on D_n with
// m keys per node.
//
// Classic block generalization of a sorting network: sort each node's block
// locally, then run the network (Algorithm 3's schedule) with every
// compare-exchange replaced by a *merge-split* — the pair merges its two
// sorted blocks and the min side keeps the lower m keys, the max side the
// upper m. By the 0-1 principle this sorts the full key set whenever the
// underlying network sorts N scalars.
//
// block_sort keeps the whole key set in one node-major SoA plane
// (values[u*block + k]) and runs dual_bitonic_network at width m, so every
// communication cycle moves contiguous width-m strides through the
// simulator's block planes (memcpy-like on compiled replay) and every
// merge-split writes its kept half straight into a double-buffered plane —
// no per-step heap traffic. The network's cycles, messages and edge loads
// are dual_sort's (asserted in block_test), and its schedule is certified
// as Batcher's bitonic network (schedule_test).
//
// Cost: the same 6n²−7n+2 communication cycles as Algorithm 3 (each cycle
// now carries a block) plus ceil(log2 m)·m-ish local work per merge,
// counted via add_ops; computation steps stay 2n²−n parallel rounds plus
// the initial local sort round.
#pragma once

#include <algorithm>
#include <vector>

#include "core/dual_sort.hpp"
#include "sim/simd.hpp"

namespace dc::core {

namespace detail {

/// Merge-split over sorted strides: writes the lower (keep_min) or upper
/// `width` keys of merge(a, b) into out (out must not alias a or b). The
/// kept half is computed directly — two-pointer from the fronts for the
/// min side, from the backs for the max side — so no 2*width scratch is
/// materialized. Integral key widths the active ISA covers take the
/// vectorized bitonic kernel (sim/simd.hpp); the output is bit-identical
/// either way, since the kept half of a merge is a pure function of the
/// input multiset.
///
/// Disjoint fast path: when the two blocks don't interleave (one's last key
/// orders before the other's first), the kept half is one of the inputs
/// verbatim and the merge collapses to a block copy. Late bitonic stages
/// see mostly already-ordered pairs, so this boundary compare carries a
/// large share of the network phase. The tie direction of each comparison
/// is chosen so the copied block is exactly what the two-pointer scan would
/// have produced, element for element, for any key type.
template <typename Key>
void merge_split(const Key* a, const Key* b, std::size_t width, bool keep_min,
                 Key* out) {
  if (width == 0) return;
  if (keep_min) {
    if (!(b[0] < a[width - 1])) {  // a[last] <= b[first]: the low half is a
      sim::simd::copy_block(out, a, width);
      return;
    }
    if (b[width - 1] < a[0]) {  // strict: on ties the scan pulls a[0] in
      sim::simd::copy_block(out, b, width);
      return;
    }
  } else {
    if (!(a[0] < b[width - 1])) {  // b[last] <= a[first]: the top half is a
      sim::simd::copy_block(out, a, width);
      return;
    }
    if (a[width - 1] < b[0]) {  // strict: on ties the scan keeps a[last]
      sim::simd::copy_block(out, b, width);
      return;
    }
  }
  if (sim::simd::merge_split(a, b, width, keep_min, out)) return;
  if (keep_min) {
    std::size_t ia = 0, ib = 0;
    for (std::size_t k = 0; k < width; ++k) {
      // ia and ib never both reach width before out fills up.
      const bool take_a = ib == width || (ia < width && !(b[ib] < a[ia]));
      out[k] = take_a ? a[ia++] : b[ib++];
    }
  } else {
    std::size_t ia = width, ib = width;
    for (std::size_t k = width; k-- > 0;) {
      const bool take_a = ib == 0 || (ia > 0 && !(a[ia - 1] < b[ib - 1]));
      out[k] = take_a ? a[--ia] : b[--ib];
    }
  }
}

}  // namespace detail

/// Sorts `data` on D_n with `block` keys per node. `data` is in node-label
/// order: node u holds data[u*block .. (u+1)*block). On return the whole
/// array is sorted (ascending iff !descending) and each node's block is
/// sorted internally.
template <typename Key>
void block_sort(sim::Machine& m, const net::RecursiveDualCube& r,
                std::vector<Key>& data, std::size_t block,
                bool descending = false) {
  DC_REQUIRE(block >= 1, "block size must be >= 1");
  DC_REQUIRE(data.size() == r.node_count() * block,
             "data size must be node_count * block");

  // The caller's node-major layout is already the SoA plane; sort each
  // node's stride in place (one parallel computation step of m log m work).
  m.compute_step([&](net::NodeId u) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(u * block),
              data.begin() + static_cast<std::ptrdiff_t>((u + 1) * block));
    m.add_ops(block);
  });

  // Network phase: Algorithm 3 with merge-split combines over strides.
  dual_bitonic_network(
      m, r, data, block, descending,
      [&m, block](net::NodeId /*u*/, bool keep_min, const Key* own,
                  const Key* other, Key* out) {
        detail::merge_split(own, other, block, keep_min, out);
        m.add_ops(2 * block);  // merge comparisons/moves
      });

  // Merge-split always keeps blocks internally ascending; a descending
  // global order additionally needs each block reversed locally.
  if (descending) {
    m.compute_step([&](net::NodeId u) {
      std::reverse(data.begin() + static_cast<std::ptrdiff_t>(u * block),
                   data.begin() + static_cast<std::ptrdiff_t>((u + 1) * block));
      m.add_ops(block / 2);
    });
  }
}

}  // namespace dc::core
