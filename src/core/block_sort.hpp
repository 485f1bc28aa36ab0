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
// (values[u*block + k]) and runs dual_bitonic_network at width m. On
// compiled replay each dimension step is one in-place sweep over the N/2
// pairs of partners, and each pair is merge-split where it lies
// (merge_split_pair) — no second plane, no per-step heap traffic. Record
// and interpreted runs move contiguous width-m strides through the
// simulator's block planes and merge-split per node into a second plane.
// The network's cycles, messages and edge loads are dual_sort's (asserted
// in block_test), and its schedule is certified as Batcher's bitonic
// network (schedule_test).
//
// The kernels run without data-dependent branches. The local sort of
// integral keys at a power-of-two width runs Batcher's network on each
// block through dual_sort's in-place bitonic step kernel (AVX-512 or AVX2
// for 8-byte keys); other keys and widths take std::sort. An interleaving
// pair of integral 8-byte keys at a power-of-two width runs the vector
// pair kernel (sim::simd::merge_split_pair: Batcher's half-cleaner, then a
// bitonic merge of each block in registers). Every other merge-split —
// the per-node merges of a recording or interpreted run, for every key
// type, and a pair the pair kernel does not cover — that no disjoint fast
// path settles runs the two-pointer merge as two independent select
// chains: one from the block ends, one from the merge-path co-rank of the
// kept half's midpoint.
//
// Cost: the same 6n²−7n+2 communication cycles as Algorithm 3 (each cycle
// now carries a block); computation steps stay 2n²−n parallel rounds plus
// the initial local sort round. add_ops charges m per node for the local
// sort and 2m per node for each merge-split, whatever kernel runs.
#pragma once

#include <algorithm>
#include <vector>

#include "core/dual_sort.hpp"
#include "sim/simd.hpp"
#include "support/bits.hpp"

namespace dc::core {

namespace detail {

/// Merge-split over sorted strides: writes the lower (keep_min) or upper
/// `width` keys of merge(a, b) into out (out must not alias a or b). The
/// result is the kept half of the two-pointer scan — from the fronts for
/// the min side, which takes a's key on ties, and from the backs for the
/// max side, which keeps a's key on ties — computed directly, so no
/// 2*width scratch is materialized. Every key type runs the same code: no
/// vector kernel covers this one-sided form.
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
  // Two independent branch-free chains of the two-pointer merge: one from
  // the ends that bound the kept half, one from the merge-path co-rank of
  // its midpoint h (how many a keys lie among the h outputs nearest that
  // end, a winning ties), found by binary search. Each step selects a
  // source pointer, so a key is copied once, and both chains keep fewer
  // than `width` keys consumed, so no step tests a bound.
  const std::size_t h = width / 2;
  // The co-rank r lies in [lo, lo + span); each probe halves the span.
  std::size_t lo = 0;
  if (keep_min) {
    // Outputs [0, h) from the fronts, [h, width) from the co-rank.
    for (std::size_t span = h + 1; span > 1; span -= span / 2) {
      const std::size_t mid = lo + span / 2;  // is a[mid-1] in the first h?
      lo = b[h - mid] < a[mid - 1] ? lo : mid;
    }
    const Key* a1 = a;
    const Key* b1 = b;
    const Key* a2 = a + lo;
    const Key* b2 = b + (h - lo);
    for (std::size_t k = 0; k < h; ++k) {
      const bool take_b1 = *b1 < *a1;
      const bool take_b2 = *b2 < *a2;
      out[k] = *(take_b1 ? b1 : a1);
      out[h + k] = *(take_b2 ? b2 : a2);
      b1 += take_b1;
      a1 += !take_b1;
      b2 += take_b2;
      a2 += !take_b2;
    }
    if (width % 2 != 0) out[width - 1] = *(*b2 < *a2 ? b2 : a2);
  } else {
    // Mirrored from the backs; each pointer sits one past its next key.
    for (std::size_t span = h + 1; span > 1; span -= span / 2) {
      const std::size_t mid = lo + span / 2;  // is a[width-mid] in the last h?
      lo = a[width - mid] < b[width - 1 - h + mid] ? lo : mid;
    }
    const Key* a1 = a + width;
    const Key* b1 = b + width;
    const Key* a2 = a1 - lo;
    const Key* b2 = b1 - (h - lo);
    for (std::size_t k = width; k-- > width - h;) {
      const bool take_a1 = !(a1[-1] < b1[-1]);
      const bool take_a2 = !(a2[-1] < b2[-1]);
      out[k] = *(take_a1 ? a1 - 1 : b1 - 1);
      out[k - h] = *(take_a2 ? a2 - 1 : b2 - 1);
      a1 -= take_a1;
      b1 -= !take_a1;
      a2 -= take_a2;
      b2 -= !take_a2;
    }
    if (width % 2 != 0) out[0] = *(a2[-1] < b2[-1] ? b2 - 1 : a2 - 1);
  }
}

/// The in-place merge-split of a pair of sorted blocks, the form a
/// replayed network runs: `lo` takes the lower (keep_min) or upper `width`
/// keys of merge(lo, hi) and `hi` the rest, each sorted ascending, which
/// is what merge_split(lo, hi, width, keep_min) and merge_split(hi, lo,
/// width, !keep_min) write, element for element. An ordered pair (the max
/// side's first key does not order before the min side's last) stays put
/// with no write, and a reversed pair (the max side's last key orders
/// before the min side's first) swaps its blocks: merge_split's disjoint
/// tests, with the same tie directions. An interleaving pair runs the
/// vector pair kernel where it covers the keys and width; any other runs
/// both merge_split calls into `scratch` (2·width keys, grown on first
/// use) and copies the results back.
template <typename Key>
void merge_split_pair(Key* lo, Key* hi, std::size_t width, bool keep_min,
                      std::vector<Key>& scratch) {
  Key* const min_side = keep_min ? lo : hi;
  Key* const max_side = keep_min ? hi : lo;
  if (!(max_side[0] < min_side[width - 1])) return;
  if (max_side[width - 1] < min_side[0]) {
    std::swap_ranges(min_side, min_side + width, max_side);
    return;
  }
  if (sim::simd::merge_split_pair(min_side, max_side, width)) return;
  if (scratch.size() < 2 * width) scratch.resize(2 * width);
  merge_split(lo, hi, width, keep_min, scratch.data());
  merge_split(hi, lo, width, !keep_min, scratch.data() + width);
  std::copy(scratch.data(), scratch.data() + width, lo);
  std::copy(scratch.data() + width, scratch.data() + 2 * width, hi);
}

/// block_sort's combine: merge-split of sorted width-m blocks, per node
/// (record and interpreted runs) or per pair in place (replay), charging
/// 2m ops per node — its merge comparisons and moves — whatever runs.
template <typename Key>
struct MergeSplitCombine {
  sim::Machine& m;
  std::size_t width;

  void operator()(net::NodeId /*u*/, bool keep_min, const Key* own,
                  const Key* other, Key* out) const {
    merge_split(own, other, width, keep_min, out);
    m.add_ops(2 * width);
  }
  void pair(bool keep_min, Key* lo, Key* hi, std::vector<Key>& scratch) const {
    merge_split_pair(lo, hi, width, keep_min, scratch);
    m.add_ops(4 * width);
  }
};

/// The local sort: one parallel computation step that sorts every node's
/// stride of the node-major plane in place, charging m ops per node.
/// Integral keys at a power-of-two width m = 2^L run Batcher's network
/// through the in-place bitonic step kernel, a chunk of whole blocks at a
/// time: merge pass s (s = 0 .. L-1) runs steps s .. 0 over the chunk's
/// keys (sim::simd::bitonic_pass), its runs of 2^(s+1) keys alternating
/// direction by index bit s+1 until the last pass sorts every block
/// ascending. Every other key type and width takes std::sort; integral
/// keys that compare equal are the same bits, so both write the same
/// bytes.
template <typename Key>
void sort_blocks(sim::Machine& m, std::vector<Key>& data, std::size_t block) {
  if constexpr (std::is_integral_v<Key>) {
    if (bits::is_pow2(block)) {
      const unsigned levels = bits::log2_floor(block);
      m.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
        Key* const keys = data.data() + lo * block;
        for (unsigned s = 0; s < levels; ++s) {
          sim::simd::bitonic_pass(
              keys, (hi - lo) * block, s + 1,
              s + 1 < levels ? bits::pow2(s + 1) : std::uint64_t{0}, false);
        }
        m.add_ops((hi - lo) * block);
      });
      return;
    }
  }
  m.compute_step([&](net::NodeId u) {
    std::sort(data.begin() + static_cast<std::ptrdiff_t>(u * block),
              data.begin() + static_cast<std::ptrdiff_t>((u + 1) * block));
    m.add_ops(block);
  });
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

  detail::sort_blocks(m, data, block);

  // Network phase: Algorithm 3 with merge-split combines over strides.
  dual_bitonic_network(m, r, data, block, descending,
                       detail::MergeSplitCombine<Key>{m, block});

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
