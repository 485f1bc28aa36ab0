// Vectorized replay kernels with runtime ISA dispatch.
//
// The compiled-schedule replay path (sim/machine.hpp) and the sorting and
// block algorithms (core/dual_sort.hpp, core/block_sort.hpp,
// core/block_prefix.hpp, core/dual_prefix.hpp) spend their cycles in five
// tight loops over 8-byte values: the receiver-major plane gather, the
// in-place bitonic compare-exchange (a replayed dual_sort's network and
// block_sort's local sort of each block, passes 1 .. 4 of both as one
// tile sort on 16-node register tiles), the in-place merge-split of a
// pair of blocks (a replayed block_sort's network), the Cube_prefix steps
// of a u64 sum (a replayed dual_prefix's cluster passes), and the
// row-wise prefix combine. This header implements them as explicit SIMD
// kernels on x86-64 — AVX2 (all five; the pair up to a width bound) and
// AVX-512 on CPUs that have it (the bitonic steps, the pair and the
// prefix steps) — behind one runtime dispatch point, with a portable
// scalar fallback that is the reference semantics. A one-sided
// merge-split, of any key, and a pair that no kernel covers run
// core/block_sort.hpp's two branch-free scalar select chains.
//
// Dispatch. active_isa() resolves once per process from the DC_SIMD
// environment variable (auto | avx2 | scalar — mirroring DC_SCHEDULE),
// clamped to what the binary and the CPU actually support: a forced ISA
// that is absent falls back to scalar rather than faulting, and any other
// value means auto. `auto` picks the best tier: AVX-512 (AVX-512F and VL)
// over AVX2 over scalar on x86-64, scalar elsewhere. The AVX-512 tier
// runs its own bitonic step, pair and prefix step kernels and the AVX2
// code of every other kernel, so DC_SIMD=avx2 on an AVX-512 CPU still
// runs the AVX2 kernels. Tests can override the choice with force_isa().
// The vector kernels are compiled with per-function target attributes, so
// the translation unit itself needs no -mavx2 or -mavx512f and the binary
// stays runnable on any x86-64; a CPU without AVX-512F/VL never reaches an
// AVX-512 instruction.
//
// Determinism. Every kernel is bit-identical to the scalar reference:
//   * gather/copy kernels move bytes — no arithmetic at all;
//   * bitonic_steps and bitonic_tile_sort write the min and the max of
//     each compared pair of integral keys; equal keys are identical bit
//     patterns, so it does not matter which kernel picks which;
//   * merge_split_pair produces the sorted lower/upper half of a merged
//     pair of sorted blocks. That output is a pure function of the input
//     multiset (for integral keys, equal keys are identical bit patterns),
//     so any correct merge — two-pointer scalar or bitonic-network SIMD —
//     yields byte-identical arrays;
//   * add_rows and cube_prefix_steps are lane-wise u64 addition, which
//     wraps, associates and commutes, so every grouping of the sums gives
//     the reference's bits.
// Replay therefore stays deterministic across ISAs, which the simd_test
// parity suite asserts on every width class.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#if defined(__x86_64__) || defined(_M_X64)
#define DC_SIMD_HAS_AVX2_BUILD 1
#include <immintrin.h>
#endif

namespace dc::sim {
namespace simd {

enum class Isa { kScalar, kAvx2, kAvx512 };

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    default:
      return "scalar";
  }
}

/// Whether this binary can run `isa` on this CPU. The AVX-512 tier needs
/// AVX-512F and VL, and AVX2 for the kernels it shares with that tier.
inline bool supported(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if DC_SIMD_HAS_AVX2_BUILD
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0;
#endif
    default:
      return false;
  }
}

/// Best ISA this binary can run on this CPU.
inline Isa detect_best() {
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2}) {
    if (supported(isa)) return isa;
  }
  return Isa::kScalar;
}

/// Whether `isa` runs the AVX2 kernels: the AVX2 tier, and the AVX-512
/// tier for every kernel but the bitonic steps, the pair merge-split and
/// the prefix steps.
inline bool runs_avx2(Isa isa) {
  return isa == Isa::kAvx2 || isa == Isa::kAvx512;
}

namespace detail {
/// Test override: -1 = none, otherwise the forced Isa value.
inline std::atomic<int> forced_isa{-1};

inline Isa env_isa() {
  static const Isa isa = [] {
    const char* e = std::getenv("DC_SIMD");
    const std::string_view v = e ? std::string_view(e) : "auto";
    if (v == "scalar") return Isa::kScalar;
    if (v == "avx2") return supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kScalar;
    return detect_best();  // "auto" (and anything unrecognized)
  }();
  return isa;
}
}  // namespace detail

/// The ISA every kernel dispatches on: a test override if one is forced,
/// else the DC_SIMD environment choice clamped to hardware support.
inline Isa active_isa() {
  const int f = detail::forced_isa.load(std::memory_order_relaxed);
  return f < 0 ? detail::env_isa() : static_cast<Isa>(f);
}

/// Forces dispatch to `isa` (tests only). Returns false — leaving the
/// current choice untouched — when this binary/CPU cannot run `isa`, so
/// callers can skip instead of silently testing the wrong path.
inline bool force_isa(Isa isa) {
  if (!supported(isa)) return false;
  detail::forced_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

/// Clears a force_isa() override; dispatch returns to the DC_SIMD choice.
inline void clear_forced_isa() {
  detail::forced_isa.store(-1, std::memory_order_relaxed);
}

/// Copies one `width`-element block. Trivially copyable T goes through one
/// memcpy — at call sites where the width is a compile-time constant (the
/// replay gather's specialized shapes) the compiler turns it into
/// straight-line vector moves; the runtime-width case is the libc's
/// size-dispatched copy, which is already vectorized. A width-1 block (a
/// scalar row, or one half of a relay pair) is a single element move
/// instead of a libc call. Non-trivial T falls back to element copies.
template <typename T>
inline void copy_block(T* dst, const T* src, std::size_t width) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    if (width == 1) {
      std::memcpy(dst, src, sizeof(T));
      return;
    }
    std::memcpy(dst, src, width * sizeof(T));
  } else {
    for (std::size_t k = 0; k < width; ++k) dst[k] = src[k];
  }
}

}  // namespace simd

/// Strided block source for the block exchanges: node u's outgoing
/// `width`-element block is `base[u*stride ..]`. With a tail set, only the
/// first `head` elements come from base and the rest from
/// `tail[u*tail_stride ..]` — the relay cycle's (own block ‖ gathered
/// block) payload without materializing a combined buffer. Passing one of
/// these (instead of a `src(u, dst)` callback) to
/// ObliviousSection::exchange_blocks / Machine::comm_cycle_scheduled_blocks
/// lets a tail-free replay run as one plane-to-plane kernel sweep.
template <typename T>
struct PlaneSrc {
  const T* base;
  std::size_t stride;
  const T* tail = nullptr;
  std::size_t tail_stride = 0;
  std::size_t head = 0;
};

/// Whether a block source is a PlaneSrc descriptor rather than a callback.
template <typename T, typename Src>
inline constexpr bool kIsPlaneSrc =
    std::is_same_v<std::remove_cvref_t<Src>, PlaneSrc<T>>;

/// Writes node u's outgoing `width`-element block from `src` — a PlaneSrc
/// or a `src(u, dst)` callback — into dst.
template <typename T, typename Src>
inline void copy_row(Src& src, std::uint64_t u, T* dst, std::size_t width) {
  if constexpr (kIsPlaneSrc<T, Src>) {
    if (!src.tail) {
      simd::copy_block(dst, src.base + u * src.stride, width);
      return;
    }
    simd::copy_block(dst, src.base + u * src.stride, src.head);
    simd::copy_block(dst + src.head, src.tail + u * src.tail_stride,
                     width - src.head);
  } else {
    src(u, dst);
  }
}

/// Writes the outgoing blocks of the `rows` consecutive nodes u, u+1, ...
/// into consecutive `width`-element rows at dst: one block copy when `src`
/// is a tail-free PlaneSrc of packed rows (stride == width), one copy_row
/// per node otherwise.
template <typename T, typename Src>
inline void copy_rows(Src& src, std::uint64_t u, T* dst, std::size_t width,
                      std::size_t rows) {
  if constexpr (kIsPlaneSrc<T, Src>) {
    if (!src.tail && src.stride == width) {
      simd::copy_block(dst, src.base + u * width, rows * width);
      return;
    }
  }
  for (std::size_t i = 0; i < rows; ++i)
    copy_row<T>(src, u + i, dst + i * width, width);
}

namespace simd {

#if DC_SIMD_HAS_AVX2_BUILD
namespace avx2 {

/// Width-1 row gather for 8-byte elements: vectorized replay inner loop
/// `plane[v] = src[from[v]]; stamp[v] = gen` for delivered rows. Dead rows
/// (from[v] == no_sender) keep their old plane/stamp bytes — the blend
/// rewrites them unchanged, matching the scalar `continue`.
__attribute__((target("avx2"))) inline void gather_w1_u64(
    std::uint64_t* plane, std::uint64_t* stamp, std::uint64_t gen,
    const std::uint64_t* from, std::uint64_t no_sender, std::size_t lo,
    std::size_t hi, const std::uint64_t* src) {
  const __m256i vno = _mm256_set1_epi64x(static_cast<long long>(no_sender));
  const __m256i vgen = _mm256_set1_epi64x(static_cast<long long>(gen));
  std::size_t v = lo;
  for (; v + 4 <= hi; v += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(from + v));
    const __m256i dead = _mm256_cmpeq_epi64(idx, vno);
    const __m256i live = _mm256_xor_si256(dead, _mm256_set1_epi64x(-1));
    // Zero the masked-off indices anyway: masked gather lanes are
    // documented not to touch memory, this just keeps them obviously safe.
    const __m256i safe = _mm256_andnot_si256(dead, idx);
    const __m256i vals = _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(), reinterpret_cast<const long long*>(src), safe,
        live, 8);
    const __m256i old_p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(plane + v),
                        _mm256_blendv_epi8(vals, old_p, dead));
    const __m256i old_s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(stamp + v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(stamp + v),
                        _mm256_blendv_epi8(vgen, old_s, dead));
  }
  for (; v < hi; ++v) {
    const std::uint64_t u = from[v];
    if (u == no_sender) continue;
    plane[v] = src[u];
    stamp[v] = gen;
  }
}

__attribute__((target("avx2"))) inline void add_rows_u64(
    std::uint64_t* cur, const std::uint64_t* prev, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
    const __m256i p =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + i),
                        _mm256_add_epi64(p, c));
  }
  for (; i < n; ++i) cur[i] = prev[i] + cur[i];
}

}  // namespace avx2
#endif  // DC_SIMD_HAS_AVX2_BUILD

/// Receiver-major replay gather over rows [lo, hi):
///   for each v with from[v] != no_sender:
///     plane[v*width ..] = src[from[v]*src_stride ..][0..width); stamp[v]=gen
/// Dead rows are untouched (their stale stamp keeps has(v) false). The
/// width-1 8-byte case runs as an AVX2 masked gather; other shapes use the
/// width-specialized block copy per row.
template <typename T>
inline void gather_rows(T* plane, std::uint64_t* stamp, std::uint64_t gen,
                        const std::uint64_t* from, std::uint64_t no_sender,
                        std::size_t lo, std::size_t hi, std::size_t width,
                        const T* src, std::size_t src_stride) {
#if DC_SIMD_HAS_AVX2_BUILD
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) == 8) {
    if (width == 1 && src_stride == 1 && runs_avx2(active_isa())) {
      avx2::gather_w1_u64(reinterpret_cast<std::uint64_t*>(plane), stamp, gen,
                          from, no_sender, lo, hi,
                          reinterpret_cast<const std::uint64_t*>(src));
      return;
    }
  }
#endif
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint64_t u = from[v];
    if (u == no_sender) continue;
    copy_block(plane + v * width, src + u * src_stride, width);
    stamp[v] = gen;
  }
}

/// Row-wise monoid combine for 64-bit sums: cur[i] = prev[i] + cur[i] over
/// [0, n). Always performs the operation (internal ISA dispatch); the
/// result is the same on every path — lane-wise integer addition.
inline void add_rows_u64(std::uint64_t* cur, const std::uint64_t* prev,
                         std::size_t n) {
#if DC_SIMD_HAS_AVX2_BUILD
  if (runs_avx2(active_isa())) {
    avx2::add_rows_u64(cur, prev, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) cur[i] = prev[i] + cur[i];
}

// ---- in-place bitonic compare-exchange ------------------------------------
// A run of dimension steps top .. bottom (bottom <= top) of one merge pass
// works on *bases*. Base q is node
//   first(q) = ((q >> bottom) << (top + 1)) | (q mod 2^bottom)
// and owns the 2^(top-bottom+1) nodes first(q) + s, for every s made of
// bits bottom .. top. Each step j of the run pairs node u with u + 2^j
// inside one base, so a run over a range of bases touches only their
// nodes: any cut of a base range gives disjoint pieces, which may run on
// different workers. A single step (top == bottom) has one base per pair,
// its low node ((p >> j) << (j+1)) | (p mod 2^j). The 2^bottom bases that
// share q >> bottom lie at consecutive nodes: one *stretch*, whose bases
// together own the node block [h, h+1) << (top+1), h = q >> bottom.

namespace scalar {

/// One step j over the pairs [p_lo, p_hi) of its dimension, in runs of
/// consecutive pairs within one group of 2^(j+1) nodes (one direction test
/// per run), with branch-free min/max selects.
template <typename Key>
inline void step_pairs(Key* keys, unsigned j, std::uint64_t p_lo,
                       std::uint64_t p_hi, std::uint64_t dir_mask,
                       bool descending) {
  const std::uint64_t half = std::uint64_t{1} << j;
  std::uint64_t lo = ((p_lo >> j) << (j + 1)) | (p_lo & (half - 1));
  for (std::uint64_t p = p_lo; p < p_hi;) {
    const std::uint64_t run = std::min(p_hi - p, half - (p & (half - 1)));
    const bool ascending = ((lo & dir_mask) == 0) != descending;
    Key* const a = keys + lo;
    Key* const b = a + half;
    Key* const to_min = ascending ? a : b;
    Key* const to_max = ascending ? b : a;
    for (std::uint64_t i = 0; i < run; ++i) {
      const Key x = a[i];
      const Key y = b[i];
      to_min[i] = y < x ? y : x;
      to_max[i] = y < x ? x : y;
    }
    p += run;
    lo += run + half;  // past the high half: the next group's first node
  }
}

/// The reference semantics of simd::bitonic_steps, one step at a time.
/// The whole stretches of the range cover one contiguous node range, so
/// each step runs over one range of pairs there; a partial stretch at
/// either end runs offset by offset, each offset a run of consecutive
/// pairs.
template <typename Key>
inline void bitonic_steps(Key* keys, unsigned top, unsigned bottom,
                          std::uint64_t q_lo, std::uint64_t q_hi,
                          std::uint64_t dir_mask, bool descending) {
  const std::uint64_t low = (std::uint64_t{1} << bottom) - 1;
  const std::uint64_t whole_lo = std::min(q_hi, (q_lo + low) & ~low);
  const std::uint64_t whole_hi = std::max(whole_lo, q_hi & ~low);
  for (unsigned j = top + 1; j-- > bottom;) {
    step_pairs(keys, j, (whole_lo >> bottom) << top,
               (whole_hi >> bottom) << top, dir_mask, descending);
  }
  for (const auto& [lo, hi] : {std::pair{q_lo, whole_lo},
                               std::pair{whole_hi, q_hi}}) {
    if (lo >= hi) continue;
    const std::uint64_t first = ((lo >> bottom) << (top + 1)) | (lo & low);
    for (unsigned j = top + 1; j-- > bottom;) {
      for (std::uint64_t s = 0; s < std::uint64_t{2} << top; s += low + 1) {
        if (((s >> j) & 1) != 0) continue;
        const std::uint64_t u = first + s;  // the offset's first low node
        const std::uint64_t p =
            ((u >> (j + 1)) << j) | (u & ((std::uint64_t{1} << j) - 1));
        step_pairs(keys, j, p, p + (hi - lo), dir_mask, descending);
      }
    }
  }
}

/// Bitonic passes first .. last (1 <= first <= last) over the bases
/// [q_lo, q_hi), base q owning the 2^last nodes from q·2^last: pass t runs
/// steps t-1 .. 0, directed by node bit t (dir_mask 2^t, ascending) below
/// the last pass and by the caller's dir_mask and descending at it. The
/// reference semantics of simd::bitonic_tile_sort (first = 1) and of a
/// tile run top .. 0 (first = last = top + 1).
template <typename Key>
inline void bitonic_passes(Key* keys, unsigned first, unsigned last,
                           std::uint64_t q_lo, std::uint64_t q_hi,
                           std::uint64_t dir_mask, bool descending) {
  for (unsigned t = first; t <= last; ++t) {
    const bool at_last = t == last;
    bitonic_steps(keys, t - 1, 0, q_lo << (last - t), q_hi << (last - t),
                  at_last ? dir_mask : std::uint64_t{1} << t,
                  at_last && descending);
  }
}

/// The reference for the few bases a vector kernel leaves at the ends of
/// its range, kept out of line: a copy in each flattened kernel would only
/// grow the code.
template <typename Key>
__attribute__((noinline)) void leftover_steps(Key* keys, unsigned top,
                                              unsigned bottom,
                                              std::uint64_t q_lo,
                                              std::uint64_t q_hi,
                                              std::uint64_t dir_mask,
                                              bool descending) {
  bitonic_steps(keys, top, bottom, q_lo, q_hi, dir_mask, descending);
}

/// leftover_steps for a run of whole passes (bitonic_passes).
template <typename Key>
__attribute__((noinline)) void leftover_passes(Key* keys, unsigned first,
                                               unsigned last,
                                               std::uint64_t q_lo,
                                               std::uint64_t q_hi,
                                               std::uint64_t dir_mask,
                                               bool descending) {
  bitonic_passes(keys, first, last, q_lo, q_hi, dir_mask, descending);
}

}  // namespace scalar

// The register-blocked loops of simd::bitonic_steps,
// simd::bitonic_tile_sort, simd::merge_split_pair and
// simd::cube_prefix_steps, written once over a lane-traits type L
// (avx2::Lanes64, avx512::Lanes64) for 8-byte keys:
//   Vec, Mask                 a register of 2^L::kLog keys, a lane mask;
//   kLiveLog                  log2 of the registers of keys a loop keeps
//                             live at once (half the register file);
//   kTwoSourcePermute         whether one instruction rearranges the lanes
//                             of two registers at will (permute2);
//   load(v, p), store(p, v)   move one register from and to memory;
//   minmax(lo, hi)            lo takes the lane-wise min, hi the max;
//   blend<M>(v, x, y)         v = y in the lanes of the bit mask M, x
//                             elsewhere;
//   unpack<H>(v, x, y)        v = lane 2c+H of x, then of y, for each pair
//                             of lanes c (vpunpck{l,h}qdq);
//   halves<I>(v, x, y)        v = two 128-bit halves of x and y, selector I
//                             (vperm2i128; without kTwoSourcePermute);
//   permute1<I>(v, x)         v = x's lanes in the vpermq order I (without
//                             kTwoSourcePermute);
//   permute2<P>(v, x, y)      v's lane i = lane P[i] of x‖y (with
//                             kTwoSourcePermute);
//   reverse(v)                v's lanes in reverse order;
//   make_mask(k, bits)        k from one bit per lane;
//   partner<J>(p, v)          p = v with each lane swapped for the lane 2^J
//                             away;
//   add(v, a)                 v += a lane-wise (64-bit, wrapping);
//   add_masked(v, k, a)       the same in the lanes of k only.
// Each round loads the registers of its bases, applies every step of the
// run in registers and stores once. The traits' members carry the ISA's
// target attribute and take registers by reference, so this generic code
// needs none: each ISA's flattened entry point inlines it whole.
namespace blocked {

// ---- split-form register tiles ----
// A tile of 2^Bits consecutive keys sits in 2^Bits / 2^kLog registers,
// position p (lane p mod 2^kLog of register p >> kLog) holding one key. A
// compare step pairs the keys whose labels differ in one bit j, and in
// *split form* register 2i holds the min sides of its lanes' pairs and
// register 2i+1 the max sides, so the step is one vertical minmax per
// register pair, operands swapped where the tile runs the other way. A
// layout says which key each position holds: static two-source permutes
// move the tile from node order into the first step's layout, from each
// step's layout into the next's and back to node order once. The layouts
// are planned at compile time, step by step among the ways to place the
// other label bits on lanes and register pairs, for the fewest permute
// instructions on the traits' ISA.

/// A tile run (steps top .. 0, top <= 3) and the tile sort work on register
/// tiles of 2^kTileLog consecutive nodes.
inline constexpr unsigned kTileLog = 4;

/// The direction bit of a pass that runs one way over a whole tile.
inline constexpr unsigned kWholeTile = 8;

/// A static rearrangement of a tile of N keys: position p takes the key at
/// position src[p].
template <std::size_t N>
struct TileMap {
  std::array<std::uint8_t, N> src;
};

/// How one register of a rearranged tile is built from the registers
/// before: a copy of x; a blend of x and y (mask: the lanes from y); an
/// unpack of x and y; two 128-bit halves of x and y (mask: the vperm2i128
/// selector); or a gather from any lanes of any registers.
struct RegisterShape {
  enum Kind { kCopy, kBlend, kUnpackLo, kUnpackHi, kHalves, kGather };
  Kind kind = kGather;
  unsigned x = 0;
  unsigned y = 0;
  unsigned mask = 0;
};

template <typename L, std::size_t N>
constexpr RegisterShape register_shape(const TileMap<N>& m, unsigned o) {
  constexpr unsigned kLanes = 1u << L::kLog;
  unsigned reg[kLanes] = {};
  unsigned lane[kLanes] = {};
  bool in_place = true;
  unsigned sources = 1;
  RegisterShape s;
  s.x = m.src[o * kLanes] >> L::kLog;
  s.y = s.x;
  for (unsigned i = 0; i < kLanes; ++i) {
    reg[i] = m.src[o * kLanes + i] >> L::kLog;
    lane[i] = m.src[o * kLanes + i] & (kLanes - 1);
    in_place = in_place && lane[i] == i;
    if (reg[i] != s.x && (sources == 1 || reg[i] != s.y)) {
      ++sources;
      s.y = reg[i];
    }
  }
  if (in_place && sources <= 2) {
    s.kind = sources == 1 ? RegisterShape::kCopy : RegisterShape::kBlend;
    for (unsigned i = 0; i < kLanes; ++i)
      s.mask |= unsigned{reg[i] != s.x} << i;
    return s;
  }
  bool unpack = lane[0] < 2 && reg[0] != reg[1];
  for (unsigned i = 0; i < kLanes; ++i) {
    unpack = unpack && lane[i] == (i & ~1u) + lane[0] &&
             reg[i] == reg[i & 1];
  }
  if (unpack) {
    s.kind = lane[0] == 0 ? RegisterShape::kUnpackLo
                          : RegisterShape::kUnpackHi;
    s.x = reg[0];
    s.y = reg[1];
    return s;
  }
  if constexpr (!L::kTwoSourcePermute && kLanes == 4) {
    if (lane[0] % 2 == 0 && lane[1] == lane[0] + 1 && reg[1] == reg[0] &&
        lane[2] % 2 == 0 && lane[3] == lane[2] + 1 && reg[3] == reg[2]) {
      s.kind = RegisterShape::kHalves;
      s.x = reg[0];
      s.y = reg[2];
      s.mask = lane[0] / 2 | (2 + lane[2] / 2) << 4;
      return s;
    }
  }
  s.kind = RegisterShape::kGather;
  return s;
}

/// A gather's part from register `from`: whether it gives any lane, the
/// lanes it gives and the vpermq order that brings them into place.
struct GatherPart {
  bool any = false;
  unsigned lanes = 0;
  unsigned order = 0;
};

template <typename L, std::size_t N>
constexpr GatherPart gather_part(const TileMap<N>& m, unsigned o,
                                 unsigned from) {
  constexpr unsigned kLanes = 1u << L::kLog;
  GatherPart g;
  for (unsigned i = 0; i < kLanes; ++i) {
    const unsigned p = m.src[o * kLanes + i];
    const bool here = p >> L::kLog == from;
    g.any = g.any || here;
    g.lanes |= unsigned{here} << i;
    g.order |= (here ? p & (kLanes - 1) : i) << (2 * i);
  }
  return g;
}

/// Instructions a rearrangement takes, weighted: a blend is cheaper than
/// a permute, and a copy is free.
template <typename L, std::size_t N>
constexpr unsigned permute_cost(const TileMap<N>& m) {
  constexpr unsigned kRegs = static_cast<unsigned>(N >> L::kLog);
  constexpr unsigned kIdentity = 0xE4;  // vpermq order 0, 1, 2, 3
  unsigned cost = 0;
  for (unsigned o = 0; o < kRegs; ++o) {
    switch (register_shape<L>(m, o).kind) {
      case RegisterShape::kCopy:
        break;
      case RegisterShape::kBlend:
        cost += 1;
        break;
      case RegisterShape::kGather:
        if constexpr (L::kTwoSourcePermute) {
          cost += 2;
        } else {
          bool first = true;
          for (unsigned r = 0; r < kRegs; ++r) {
            const GatherPart g = gather_part<L>(m, o, r);
            if (!g.any) continue;
            cost += (g.order != kIdentity ? 2u : 0u) + (first ? 0u : 1u);
            first = false;
          }
        }
        break;
      default:
        cost += 2;
        break;
    }
  }
  return cost;
}

/// One compare step of a tile plan: pairs differ in label bit j, node bit
/// d directs the pair (d >= the tile's bits: one way over the whole tile),
/// and `last` marks the plan's last pass, which a descending tile runs
/// with its operands swapped.
struct TileStep {
  unsigned j = 0;
  unsigned d = 0;
  bool last = false;
};

/// A planned tile: its steps and the rearrangements around them (map[s]
/// into step s's layout, map[steps] back to node order).
template <std::size_t N, std::size_t S>
struct TilePlan {
  std::array<TileStep, S> step;
  std::array<TileMap<N>, S + 1> map;
};

/// Steps of bitonic passes F .. B (pass t: steps t-1 .. 0).
constexpr std::size_t passes_steps(unsigned first, unsigned last) {
  return (first + last) * (last - first + 1) / 2;
}

/// The split-form layout of step (j, d) on a tile of 2^Bits keys, with
/// the other label bits placed in slot order `slot`: lane bits first, then
/// the register pair. Register 2i+side holds the key whose bit j is side,
/// flipped where bit d is set, so its min-side keys sit in register 2i.
template <typename L, unsigned Bits>
constexpr std::array<std::uint8_t, std::size_t{1} << Bits> split_layout(
    unsigned j, unsigned d, const std::array<unsigned, Bits - 1>& slot) {
  std::array<std::uint8_t, std::size_t{1} << Bits> node{};
  for (unsigned p = 0; p < node.size(); ++p) {
    const unsigned reg = p >> L::kLog;
    const unsigned v = (p & ((1u << L::kLog) - 1)) | (reg >> 1) << L::kLog;
    unsigned u = 0;
    for (unsigned k = 0; k + 1 < Bits; ++k) u |= ((v >> k) & 1) << slot[k];
    const unsigned side = (reg & 1) ^ (d < Bits ? (u >> d) & 1 : 0);
    node[p] = static_cast<std::uint8_t>(u | side << j);
  }
  return node;
}

/// The rearrangement from layout `from` to layout `to` (position -> node).
template <std::size_t N>
constexpr TileMap<N> tile_map(const std::array<std::uint8_t, N>& from,
                              const std::array<std::uint8_t, N>& to) {
  std::array<std::uint8_t, N> at{};
  for (std::size_t p = 0; p < N; ++p)
    at[from[p]] = static_cast<std::uint8_t>(p);
  TileMap<N> m{};
  for (std::size_t p = 0; p < N; ++p) m.src[p] = at[to[p]];
  return m;
}

/// Plans passes F .. B on a tile of 2^Bits keys, pass t < B directed by
/// node bit t and pass B by node bit D: each step's layout is one of the
/// (Bits-1)! placements of its other bits, chosen by a shortest path over
/// the steps for the least permute_cost from node order back to node
/// order.
template <typename L, unsigned Bits, unsigned F, unsigned B, unsigned D>
constexpr auto plan_tile() {
  constexpr std::size_t kNodes = std::size_t{1} << Bits;
  constexpr std::size_t kSteps = passes_steps(F, B);
  constexpr std::size_t kWays = Bits == 4 ? 6 : Bits == 3 ? 2 : 1;
  using Layout = std::array<std::uint8_t, kNodes>;
  TilePlan<kNodes, kSteps> plan{};
  std::size_t s = 0;
  for (unsigned t = F; t <= B; ++t) {
    for (unsigned j = t; j-- > 0;) plan.step[s++] = {j, t < B ? t : D, t == B};
  }
  Layout node_order{};
  for (std::size_t p = 0; p < kNodes; ++p)
    node_order[p] = static_cast<std::uint8_t>(p);
  std::array<std::array<Layout, kWays>, kSteps> way{};
  for (s = 0; s < kSteps; ++s) {
    std::array<unsigned, Bits - 1> slot{};
    for (unsigned b = 0, k = 0; b < Bits; ++b) {
      if (b != plan.step[s].j) slot[k++] = b;
    }
    std::size_t w = 0;
    do {
      way[s][w++] = split_layout<L, Bits>(plan.step[s].j, plan.step[s].d, slot);
    } while (std::next_permutation(slot.begin(), slot.end()));
  }
  std::array<std::array<unsigned, kWays>, kSteps> cost{};
  std::array<std::array<std::size_t, kWays>, kSteps> via{};
  for (std::size_t w = 0; w < kWays; ++w)
    cost[0][w] = permute_cost<L>(tile_map(node_order, way[0][w]));
  for (s = 1; s < kSteps; ++s) {
    for (std::size_t w = 0; w < kWays; ++w) {
      cost[s][w] = ~0u;
      for (std::size_t v = 0; v < kWays; ++v) {
        const TileMap<kNodes> hop = tile_map(way[s - 1][v], way[s][w]);
        const unsigned c = cost[s - 1][v] + permute_cost<L>(hop);
        if (c < cost[s][w]) {
          cost[s][w] = c;
          via[s][w] = v;
        }
      }
    }
  }
  std::size_t w = 0;
  unsigned best = ~0u;
  for (std::size_t v = 0; v < kWays; ++v) {
    const TileMap<kNodes> back = tile_map(way[kSteps - 1][v], node_order);
    const unsigned c = cost[kSteps - 1][v] + permute_cost<L>(back);
    if (c < best) {
      best = c;
      w = v;
    }
  }
  plan.map[kSteps] = tile_map(way[kSteps - 1][w], node_order);
  for (s = kSteps; s-- > 0;) {
    const Layout& from = s == 0 ? node_order : way[s - 1][via[s][w]];
    plan.map[s] = tile_map(from, way[s][w]);
    w = via[s][w];
  }
  return plan;
}

/// The tile plans depend on a tier's lane count and permutes alone, not
/// on the signedness of its keys.
template <unsigned kLogV, bool kTwoSourcePermuteV>
struct TileGeometry {
  static constexpr unsigned kLog = kLogV;
  static constexpr bool kTwoSourcePermute = kTwoSourcePermuteV;
};

template <typename L, unsigned Bits, unsigned F, unsigned B, unsigned D>
inline constexpr auto kTilePlan =
    plan_tile<TileGeometry<L::kLog, L::kTwoSourcePermute>, Bits, F, B, D>();

/// A gather without kTwoSourcePermute: each source register's lanes put
/// in place with permute1, then blended over the lanes before.
template <typename L, auto M, unsigned O, unsigned From, bool kFirst,
          std::size_t R>
inline void gather_register(typename L::Vec& out,
                            const typename L::Vec (&in)[R]) {
  if constexpr (From < R) {
    constexpr GatherPart g = gather_part<L>(M, O, From);
    if constexpr (g.any) {
      typename L::Vec part = in[From];
      if constexpr (g.order != 0xE4) L::template permute1<g.order>(part, part);
      if constexpr (kFirst) {
        out = part;
      } else {
        L::template blend<g.lanes>(out, out, part);
      }
    }
    gather_register<L, M, O, From + 1, kFirst && !g.any>(out, in);
  }
}

/// Register `o` of the rearrangement M of the tile `in`.
template <typename L, auto M, unsigned O, std::size_t R>
inline void permute_register(typename L::Vec& out,
                             const typename L::Vec (&in)[R]) {
  constexpr RegisterShape s = register_shape<L>(M, O);
  if constexpr (s.kind == RegisterShape::kCopy) {
    out = in[s.x];
  } else if constexpr (s.kind == RegisterShape::kBlend) {
    L::template blend<s.mask>(out, in[s.x], in[s.y]);
  } else if constexpr (s.kind == RegisterShape::kUnpackLo ||
                       s.kind == RegisterShape::kUnpackHi) {
    L::template unpack<s.kind == RegisterShape::kUnpackHi>(out, in[s.x],
                                                           in[s.y]);
  } else if constexpr (s.kind == RegisterShape::kHalves) {
    L::template halves<s.mask>(out, in[s.x], in[s.y]);
  } else if constexpr (L::kTwoSourcePermute) {
    static_assert(R == 2, "permute2 rearranges a tile of two registers");
    constexpr unsigned kLanes = 1u << L::kLog;
    constexpr auto lanes = [] {
      std::array<std::uint8_t, kLanes> p{};
      for (unsigned i = 0; i < kLanes; ++i) p[i] = M.src[O * kLanes + i];
      return p;
    }();
    L::template permute2<lanes>(out, in[0], in[1]);
  } else {
    gather_register<L, M, O, 0, true>(out, in);
  }
}

/// Rearranges the tile r by M.
template <typename L, auto M, std::size_t R>
inline void permute_tile(typename L::Vec (&r)[R]) {
  typename L::Vec in[R];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < R; ++i) in[i] = r[i];
  [&]<std::size_t... O>(std::index_sequence<O...>) {
    (permute_register<L, M, O>(r[O], in), ...);
  }(std::make_index_sequence<R>{});
}

/// Steps S .. of the plan P on the tile r, then back to node order.
template <typename L, const auto& P, bool kDescending, std::size_t S = 0,
          std::size_t R>
inline void plan_steps(typename L::Vec (&r)[R]) {
  permute_tile<L, P.map[S]>(r);
  if constexpr (S < P.step.size()) {
#pragma GCC unroll 2
    for (std::size_t i = 0; i < R; i += 2) {
      if constexpr (kDescending && P.step[S].last) {
        L::minmax(r[i + 1], r[i]);
      } else {
        L::minmax(r[i], r[i + 1]);
      }
    }
    plan_steps<L, P, kDescending, S + 1>(r);
  }
}

/// Passes F .. B (B <= kTileLog) over bases [q_lo, q_hi), base q owning
/// the 2^B nodes from q·2^B (scalar::bitonic_passes), a register tile of
/// 16 nodes at a time, the bases of partial tiles at either end through
/// the reference. Pass B is directed by node bit D inside the tile, or
/// (D = kWholeTile) one way over each tile: the dir_mask bit at 4 or above
/// and `descending` pick a tile's way, and a descending tile swaps the
/// operands of its last pass.
template <typename L, unsigned F, unsigned B, unsigned D, typename Key>
inline void tile_passes(Key* keys, std::uint64_t q_lo, std::uint64_t q_hi,
                        std::uint64_t dir_mask, bool descending) {
  constexpr unsigned kTile = 1u << kTileLog;
  constexpr unsigned kRegs = kTile >> L::kLog;
  constexpr std::uint64_t kBases = kTile >> B;
  const std::uint64_t t_lo = (q_lo + kBases - 1) / kBases;
  const std::uint64_t t_hi = q_hi / kBases;
  if (t_lo >= t_hi) {  // no whole tile
    scalar::leftover_passes(keys, F, B, q_lo, q_hi, dir_mask, descending);
    return;
  }
  if (q_lo < t_lo * kBases) {
    scalar::leftover_passes(keys, F, B, q_lo, t_lo * kBases, dir_mask,
                            descending);
  }
  if (t_hi * kBases < q_hi) {
    scalar::leftover_passes(keys, F, B, t_hi * kBases, q_hi, dir_mask,
                            descending);
  }
  const std::uint64_t tile_dir = dir_mask & ~std::uint64_t{kTile - 1};
  for (std::uint64_t t = t_lo; t < t_hi; ++t) {
    Key* const at = keys + t * kTile;
    typename L::Vec r[kRegs];
#pragma GCC unroll 4
    for (unsigned s = 0; s < kRegs; ++s) L::load(r[s], at + (s << L::kLog));
    if ((((t * kTile) & tile_dir) != 0) != descending) {
      plan_steps<L, kTilePlan<L, kTileLog, F, B, D>, true>(r);
    } else {
      plan_steps<L, kTilePlan<L, kTileLog, F, B, D>, false>(r);
    }
#pragma GCC unroll 4
    for (unsigned s = 0; s < kRegs; ++s) L::store(at + (s << L::kLog), r[s]);
  }
}

/// tile_passes with pass B's direction bit D read from dir_mask: a bit
/// below the tile's 16 nodes directs the pass inside each tile.
template <typename L, unsigned F, unsigned B, unsigned D = B, typename Key>
inline void tile_passes_by_dir(Key* keys, std::uint64_t q_lo,
                               std::uint64_t q_hi, std::uint64_t dir_mask,
                               bool descending) {
  if constexpr (D < kTileLog) {
    if ((dir_mask >> D & 1) != 0) {
      tile_passes<L, F, B, D>(keys, q_lo, q_hi, dir_mask, descending);
    } else {
      tile_passes_by_dir<L, F, B, D + 1>(keys, q_lo, q_hi, dir_mask,
                                         descending);
    }
  } else {
    tile_passes<L, F, B, kWholeTile>(keys, q_lo, q_hi, dir_mask, descending);
  }
}

/// Rounds of a run of G steps at or above the register width over `count`
/// consecutive bases of one stretch (a multiple of the lane count), from
/// node `at`: register s of a round holds the lanes' nodes at offset
/// s << bottom, and step bottom + i pairs register s with s + 2^i.
template <typename L, unsigned G, bool kDescending, typename Key>
inline void vertical_rounds(Key* at, unsigned bottom, std::uint64_t count) {
  constexpr unsigned kRegs = 1u << G;
  for (std::uint64_t i = 0; i < count; i += std::uint64_t{1} << L::kLog) {
    typename L::Vec r[kRegs];
#pragma GCC unroll 8
    for (unsigned s = 0; s < kRegs; ++s)
      L::load(r[s], at + i + (std::uint64_t{s} << bottom));
#pragma GCC unroll 3
    for (unsigned step = 0; step < G; ++step) {
      const unsigned d = G - 1 - step;
#pragma GCC unroll 8
      for (unsigned s = 0; s < kRegs; ++s) {
        if (((s >> d) & 1) != 0) continue;
        if constexpr (kDescending) {
          L::minmax(r[s | 1u << d], r[s]);
        } else {
          L::minmax(r[s], r[s | 1u << d]);
        }
      }
    }
#pragma GCC unroll 8
    for (unsigned s = 0; s < kRegs; ++s)
      L::store(at + i + (std::uint64_t{s} << bottom), r[s]);
  }
}

/// Steps bottom+G-1 .. bottom (bottom >= L::kLog) over bases
/// [q_lo, q_hi): stretch by stretch, whole rounds in registers, the few
/// bases left at a stretch's end through the reference.
template <typename L, unsigned G, typename Key>
inline void vertical(Key* keys, unsigned bottom, std::uint64_t q_lo,
                     std::uint64_t q_hi, std::uint64_t dir_mask,
                     bool descending) {
  const std::uint64_t low = (std::uint64_t{1} << bottom) - 1;
  for (std::uint64_t q = q_lo; q < q_hi;) {
    const std::uint64_t end = std::min(q_hi, (q | low) + 1);
    const std::uint64_t whole = (end - q) >> L::kLog << L::kLog;
    const std::uint64_t first = ((q >> bottom) << (bottom + G)) | (q & low);
    if (((first & dir_mask) == 0) != descending) {
      vertical_rounds<L, G, false>(keys + first, bottom, whole);
    } else {
      vertical_rounds<L, G, true>(keys + first, bottom, whole);
    }
    if (q + whole < end) {
      scalar::leftover_steps(keys, bottom + G - 1, bottom, q + whole, end,
                             dir_mask, descending);
    }
    q = end;
  }
}

/// simd::bitonic_steps on lane traits L: a tile run top .. 0 on split-form
/// register tiles (passes top+1 .. top+1), a run of up to three steps at
/// or above the register width in vertical rounds, any other run through
/// the reference.
template <typename L, typename Key>
inline void steps(Key* keys, unsigned top, unsigned bottom,
                  std::uint64_t q_lo, std::uint64_t q_hi,
                  std::uint64_t dir_mask, bool descending) {
  if (bottom == 0 && top < kTileLog) {
    switch (top) {
      case 0:
        tile_passes_by_dir<L, 1, 1>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      case 1:
        tile_passes_by_dir<L, 2, 2>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      case 2:
        tile_passes_by_dir<L, 3, 3>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      default:
        tile_passes_by_dir<L, 4, 4>(keys, q_lo, q_hi, dir_mask, descending);
        return;
    }
  }
  if (bottom >= L::kLog && top - bottom < 3) {
    switch (top - bottom) {
      case 0:
        vertical<L, 1>(keys, bottom, q_lo, q_hi, dir_mask, descending);
        return;
      case 1:
        vertical<L, 2>(keys, bottom, q_lo, q_hi, dir_mask, descending);
        return;
      default:
        vertical<L, 3>(keys, bottom, q_lo, q_hi, dir_mask, descending);
        return;
    }
  }
  scalar::bitonic_steps(keys, top, bottom, q_lo, q_hi, dir_mask, descending);
}

/// simd::bitonic_tile_sort on lane traits L: passes 1 .. b (b <= 4) on
/// split-form register tiles.
template <typename L, typename Key>
inline void tile_sort(Key* keys, unsigned b, std::uint64_t q_lo,
                      std::uint64_t q_hi, std::uint64_t dir_mask,
                      bool descending) {
  switch (b) {
    case 1:
      tile_passes_by_dir<L, 1, 1>(keys, q_lo, q_hi, dir_mask, descending);
      return;
    case 2:
      tile_passes_by_dir<L, 1, 2>(keys, q_lo, q_hi, dir_mask, descending);
      return;
    case 3:
      tile_passes_by_dir<L, 1, 3>(keys, q_lo, q_hi, dir_mask, descending);
      return;
    default:
      tile_passes_by_dir<L, 1, 4>(keys, q_lo, q_hi, dir_mask, descending);
      return;
  }
}

// simd::merge_split_pair on lane traits L. Batcher's half-cleaner first:
// lo[i] and hi[m-1-i] take their min and max, so lo holds the lower m keys
// of the pair and hi the upper m, each a bitonic sequence. Then an
// ascending bitonic merge sorts each block: its steps pair keys m/2 .. 1
// apart, registers while the distance spans whole registers, lanes below.

/// Lane steps kLog-1 .. 0 of an ascending merge on two registers at once,
/// in split form: a and b make a tile of 2^(kLog+1) keys, and the steps
/// pair keys inside each register (the tile's pass kLog, one way over it).
template <typename L>
inline void ascending_lane_steps(typename L::Vec& a, typename L::Vec& b) {
  typename L::Vec r[2] = {a, b};
  plan_steps<L, kTilePlan<L, L::kLog + 1, L::kLog, L::kLog, kWholeTile>,
             false>(r);
  a = r[0];
  b = r[1];
}

/// Register steps D .. 1 (a power of two, or 0 for none) of an ascending
/// merge: register s against register s + D.
template <typename L, std::size_t D, std::size_t R>
inline void ascending_register_steps(typename L::Vec (&r)[R]) {
  if constexpr (D > 0) {
#pragma GCC unroll 16
    for (std::size_t s = 0; s < R; ++s) {
      if ((s & D) == 0) L::minmax(r[s], r[s | D]);
    }
    ascending_register_steps<L, D / 2>(r);
  }
}

/// A pair of R registers per block, held in registers from load to store.
/// The half-cleaner reads hi reversed, so its max side comes out as hi's
/// bitonic sequence read backwards, which the ascending merge sorts all
/// the same: hi is stored in order, with no second reversal. Each block's
/// register steps run apart, then their lane steps together, register s
/// of lo with register s of hi.
template <typename L, std::size_t R, typename Key>
inline void pair_in_registers(Key* lo, Key* hi) {
  constexpr std::size_t kLanes = std::size_t{1} << L::kLog;
  typename L::Vec x[R];
  typename L::Vec y[R];
#pragma GCC unroll 16
  for (std::size_t s = 0; s < R; ++s) {
    L::load(x[s], lo + s * kLanes);
    L::load(y[s], hi + (R - 1 - s) * kLanes);
    L::reverse(y[s]);
    L::minmax(x[s], y[s]);
  }
  ascending_register_steps<L, R / 2>(x);
  ascending_register_steps<L, R / 2>(y);
#pragma GCC unroll 16
  for (std::size_t s = 0; s < R; ++s) {
    ascending_lane_steps<L>(x[s], y[s]);
    L::store(lo + s * kLanes, x[s]);
    L::store(hi + s * kLanes, y[s]);
  }
}

/// A pair of 2^log keys per block, too wide to hold in registers: one
/// half-cleaner pass over both blocks, then per block the merge's steps at
/// or above the chunk of 2^kLiveLog registers in vertical rounds of up to
/// three steps, then each chunk in registers.
template <typename L, typename Key>
inline void pair_in_passes(Key* lo, Key* hi, unsigned log) {
  constexpr std::size_t kLanes = std::size_t{1} << L::kLog;
  constexpr std::size_t kLive = std::size_t{1} << L::kLiveLog;
  constexpr unsigned kChunkLog = L::kLiveLog + L::kLog;
  const std::size_t width = std::size_t{1} << log;
  for (std::size_t i = 0; i < width; i += kLanes) {
    typename L::Vec x;
    typename L::Vec y;
    L::load(x, lo + i);
    L::load(y, hi + width - kLanes - i);
    L::reverse(y);
    L::minmax(x, y);
    L::reverse(y);
    L::store(lo + i, x);
    L::store(hi + width - kLanes - i, y);
  }
  for (Key* const block : {lo, hi}) {
    for (unsigned end = log; end > kChunkLog;) {
      const unsigned bottom = end - std::min(end - kChunkLog, 3u);
      const std::uint64_t bases = std::uint64_t{1} << bottom;
      for (std::size_t at = 0; at < width; at += std::size_t{1} << end) {
        switch (end - bottom) {
          case 1:
            vertical_rounds<L, 1, false>(block + at, bottom, bases);
            break;
          case 2:
            vertical_rounds<L, 2, false>(block + at, bottom, bases);
            break;
          default:
            vertical_rounds<L, 3, false>(block + at, bottom, bases);
            break;
        }
      }
      end = bottom;
    }
    for (std::size_t at = 0; at < width; at += kLive * kLanes) {
      typename L::Vec r[kLive];
#pragma GCC unroll 16
      for (std::size_t s = 0; s < kLive; ++s)
        L::load(r[s], block + at + s * kLanes);
      ascending_register_steps<L, kLive / 2>(r);
#pragma GCC unroll 8
      for (std::size_t s = 0; s < kLive; s += 2)
        ascending_lane_steps<L>(r[s], r[s + 1]);
#pragma GCC unroll 16
      for (std::size_t s = 0; s < kLive; ++s)
        L::store(block + at + s * kLanes, r[s]);
    }
  }
}

/// The pair of `regs` registers per block (a power of two, R or more):
/// in registers while both blocks fit in 2^kLiveLog of them, in passes
/// above that.
template <typename L, std::size_t R, typename Key>
inline void pair_by_width(Key* lo, Key* hi, std::size_t regs, unsigned log) {
  if constexpr (2 * R <= (std::size_t{1} << L::kLiveLog)) {
    if (regs == R) {
      pair_in_registers<L, R>(lo, hi);
      return;
    }
    pair_by_width<L, 2 * R>(lo, hi, regs, log);
  } else {
    pair_in_passes<L>(lo, hi, log);
  }
}

/// simd::merge_split_pair on lane traits L, for a width 2^log of at least
/// one register.
template <typename L, typename Key>
inline void merge_split_pair(Key* lo, Key* hi, unsigned log) {
  pair_by_width<L, 1>(lo, hi, std::size_t{1} << (log - L::kLog), log);
}

// simd::cube_prefix_steps on lane traits L, taken in their signed form,
// whose loads and stores move raw bits: a 64-bit add ignores sign. A step
// pairs totals x (t) and prefixes y (s) of a low and a high node: both
// totals become x_lo + x_hi and the high prefix y_hi + x_lo.

/// Lane steps J .. kLog-1 on registers x (totals) and y (prefixes): all[J]
/// holds every lane when step J runs and none otherwise, high[J] the lanes
/// whose bit J is set when it runs.
template <typename L, unsigned J, std::size_t R>
inline void prefix_lane_steps(typename L::Vec (&x)[R], typename L::Vec (&y)[R],
                              const typename L::Mask (&all)[L::kLog],
                              const typename L::Mask (&high)[L::kLog]) {
#pragma GCC unroll 8
  for (std::size_t k = 0; k < R; ++k) {
    typename L::Vec p;
    L::template partner<J>(p, x[k]);
    L::add_masked(y[k], high[J], p);
    L::add_masked(x[k], all[J], p);
  }
  if constexpr (J + 1 < L::kLog) prefix_lane_steps<L, J + 1>(x, y, all, high);
}

/// Rounds of G steps at or above the register width over a tile of `len`
/// nodes: register k of a round holds the lanes' nodes at offset k·d, and
/// the round's step e pairs register k with k + 2^e. With kLaneSteps the
/// registers are consecutive (d is one register) and the lane steps run
/// first.
template <typename L, unsigned G, bool kLaneSteps>
inline void prefix_rounds(std::uint64_t* t, std::uint64_t* s,
                          std::uint64_t len, std::uint64_t d,
                          const typename L::Mask (&all)[L::kLog],
                          const typename L::Mask (&high)[L::kLog]) {
  constexpr unsigned kRegs = 1u << G;
  constexpr std::uint64_t kLanes = std::uint64_t{1} << L::kLog;
  for (std::uint64_t g = 0; g < len; g += d << G) {
    for (std::uint64_t o = g; o < g + d; o += kLanes) {
      typename L::Vec x[kRegs];
      typename L::Vec y[kRegs];
#pragma GCC unroll 8
      for (unsigned k = 0; k < kRegs; ++k) {
        L::load(x[k], t + o + k * d);
        L::load(y[k], s + o + k * d);
      }
      if constexpr (kLaneSteps) prefix_lane_steps<L, 0>(x, y, all, high);
#pragma GCC unroll 3
      for (unsigned e = 0; e < G; ++e) {
#pragma GCC unroll 8
        for (unsigned k = 0; k < kRegs; ++k) {
          if (((k >> e) & 1) != 0) continue;
          const unsigned h = k | 1u << e;
          L::add(y[h], x[k]);
          L::add(x[k], x[h]);
          x[h] = x[k];
        }
      }
#pragma GCC unroll 8
      for (unsigned k = 0; k < kRegs; ++k) {
        L::store(t + o + k * d, x[k]);
        L::store(s + o + k * d, y[k]);
      }
    }
  }
}

/// prefix_rounds with a run-time G of at most 3.
template <typename L, bool kLaneSteps>
inline void prefix_rounds_of(unsigned g, std::uint64_t* t, std::uint64_t* s,
                             std::uint64_t len, std::uint64_t d,
                             const typename L::Mask (&all)[L::kLog],
                             const typename L::Mask (&high)[L::kLog]) {
  switch (g) {
    case 0:
      prefix_rounds<L, 0, kLaneSteps>(t, s, len, d, all, high);
      return;
    case 1:
      prefix_rounds<L, 1, kLaneSteps>(t, s, len, d, all, high);
      return;
    case 2:
      prefix_rounds<L, 2, kLaneSteps>(t, s, len, d, all, high);
      return;
    default:
      prefix_rounds<L, 3, kLaneSteps>(t, s, len, d, all, high);
      return;
  }
}

/// Steps 0 .. steps-1 of a tile of `len` nodes (a multiple of the lane
/// count), step i at stride 2^(unit_log + i): the steps below the register
/// width as lane steps in one round with the first few above it, the rest
/// in vertical rounds of as many steps as half the register file holds
/// (each round keeps a register of totals and one of prefixes per node
/// group).
template <typename L>
inline void cube_prefix_steps(std::uint64_t* t, std::uint64_t* s,
                              std::uint64_t len, unsigned unit_log,
                              unsigned steps) {
  constexpr unsigned kRoundSteps = L::kLiveLog - 1;
  constexpr unsigned kLanes = 1u << L::kLog;
  typename L::Mask all[L::kLog];
  typename L::Mask high[L::kLog];
  for (unsigned j = 0; j < L::kLog; ++j) {
    const bool runs = unit_log <= j && j < unit_log + steps;
    unsigned bits = 0;
    for (unsigned i = 0; i < kLanes; ++i)
      bits |= unsigned{((i >> j) & 1) != 0} << i;
    L::make_mask(all[j], runs ? (1u << kLanes) - 1 : 0);
    L::make_mask(high[j], runs ? bits : 0);
  }
  unsigned i = 0;  // the next step to run
  if (unit_log < L::kLog) {
    i = std::min(steps, L::kLog - unit_log);
    const unsigned g = std::min(steps - i, kRoundSteps);
    prefix_rounds_of<L, true>(g, t, s, len, kLanes, all, high);
    i += g;
  }
  while (i < steps) {
    const unsigned g = std::min(steps - i, kRoundSteps);
    prefix_rounds_of<L, false>(g, t, s, len,
                               std::uint64_t{1} << (unit_log + i), all, high);
    i += g;
  }
}

}  // namespace blocked

#if DC_SIMD_HAS_AVX2_BUILD
namespace avx2 {

/// Lane traits of blocked::steps on AVX2: four 8-byte keys per register.
/// AVX2 has no 64-bit min/max, so a register is held in order form —
/// unsigned keys with bit 63 flipped, which maps unsigned order onto
/// signed order — and each compare is one signed cmpgt_epi64, followed by
/// blends. store undoes the flip, so every stored lane is an input key.
template <bool kSigned>
struct Lanes64 {
  using Vec = __m256i;
  using Mask = __m256i;  // all-ones lanes take a masked add
  static constexpr unsigned kLog = 2;
  static constexpr unsigned kLiveLog = 3;  // 8 of the 16 ymm registers
  static constexpr bool kTwoSourcePermute = false;

  __attribute__((target("avx2"))) static void load(Vec& v, const void* p) {
    v = order(_mm256_loadu_si256(static_cast<const __m256i*>(p)));
  }
  __attribute__((target("avx2"))) static void store(void* p, const Vec& v) {
    _mm256_storeu_si256(static_cast<__m256i*>(p), order(v));
  }
  __attribute__((target("avx2"))) static void minmax(Vec& lo, Vec& hi) {
    const __m256i gt = _mm256_cmpgt_epi64(lo, hi);
    const __m256i mn = _mm256_blendv_epi8(lo, hi, gt);
    hi = _mm256_blendv_epi8(hi, lo, gt);
    lo = mn;
  }
  template <unsigned M>
  __attribute__((target("avx2"))) static void blend(Vec& v, const Vec& x,
                                                    const Vec& y) {
    constexpr int kDwords = (M & 1 ? 0x03 : 0) | (M & 2 ? 0x0C : 0) |
                            (M & 4 ? 0x30 : 0) | (M & 8 ? 0xC0 : 0);
    v = _mm256_blend_epi32(x, y, kDwords);
  }
  template <bool H>
  __attribute__((target("avx2"))) static void unpack(Vec& v, const Vec& x,
                                                     const Vec& y) {
    v = H ? _mm256_unpackhi_epi64(x, y) : _mm256_unpacklo_epi64(x, y);
  }
  template <unsigned I>
  __attribute__((target("avx2"))) static void halves(Vec& v, const Vec& x,
                                                     const Vec& y) {
    v = _mm256_permute2x128_si256(x, y, I);
  }
  template <unsigned I>
  __attribute__((target("avx2"))) static void permute1(Vec& v,
                                                       const Vec& x) {
    v = _mm256_permute4x64_epi64(x, I);
  }
  template <unsigned J>
  __attribute__((target("avx2"))) static void partner(Vec& p, const Vec& v) {
    if constexpr (J == 1) {
      p = _mm256_permute4x64_epi64(v, 0x4E);  // swap 128-bit halves
    } else {
      p = _mm256_shuffle_epi32(v, 0x4E);  // swap neighbouring lanes
    }
  }
  __attribute__((target("avx2"))) static void add(Vec& v, const Vec& a) {
    v = _mm256_add_epi64(v, a);
  }
  __attribute__((target("avx2"))) static void add_masked(Vec& v,
                                                         const Mask& k,
                                                         const Vec& a) {
    v = _mm256_add_epi64(v, _mm256_and_si256(a, k));
  }
  __attribute__((target("avx2"))) static void reverse(Vec& v) {
    v = _mm256_permute4x64_epi64(v, 0x1B);
  }
  __attribute__((target("avx2"))) static void make_mask(Mask& k,
                                                        unsigned bits) {
    const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
    k = _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bit), lane_bit);
  }

 private:
  __attribute__((target("avx2"))) static __m256i order(__m256i v) {
    if constexpr (kSigned) {
      return v;
    } else {
      return _mm256_xor_si256(v, _mm256_set1_epi64x(INT64_MIN));
    }
  }
};

template <typename Key>
__attribute__((target("avx2"), flatten)) inline void bitonic_steps(
    Key* keys, unsigned top, unsigned bottom, std::uint64_t q_lo,
    std::uint64_t q_hi, std::uint64_t dir_mask, bool descending) {
  blocked::steps<Lanes64<std::is_signed_v<Key>>>(keys, top, bottom, q_lo,
                                                 q_hi, dir_mask, descending);
}

template <typename Key>
__attribute__((target("avx2"), flatten)) inline void bitonic_tile_sort(
    Key* keys, unsigned b, std::uint64_t q_lo, std::uint64_t q_hi,
    std::uint64_t dir_mask, bool descending) {
  blocked::tile_sort<Lanes64<std::is_signed_v<Key>>>(keys, b, q_lo, q_hi,
                                                     dir_mask, descending);
}

template <typename Key>
__attribute__((target("avx2"), flatten)) inline void merge_split_pair(
    Key* lo, Key* hi, unsigned log) {
  blocked::merge_split_pair<Lanes64<std::is_signed_v<Key>>>(lo, hi, log);
}

__attribute__((target("avx2"), flatten)) inline void cube_prefix_steps(
    std::uint64_t* t, std::uint64_t* s, std::uint64_t len, unsigned unit_log,
    unsigned steps) {
  blocked::cube_prefix_steps<Lanes64<true>>(t, s, len, unit_log, steps);
}

}  // namespace avx2

namespace avx512 {

/// Lane traits of blocked::steps on AVX-512F: eight 8-byte keys per
/// register, compared with native 64-bit min/max, lane masks in mask
/// registers. Full-mask maskz forms stand in for the plain min, max and
/// shuffles, whose undefined pass-through source GCC 12 reports as
/// maybe-uninitialized.
template <bool kSigned>
struct Lanes64 {
  using Vec = __m512i;
  using Mask = __mmask8;  // set lanes take a masked add
  static constexpr unsigned kLog = 3;
  static constexpr unsigned kLiveLog = 4;  // 16 of the 32 zmm registers
  static constexpr bool kTwoSourcePermute = true;  // vpermt2q

  __attribute__((target("avx512f,avx512vl"))) static void load(Vec& v,
                                                             const void* p) {
    v = _mm512_loadu_si512(p);
  }
  __attribute__((target("avx512f,avx512vl"))) static void store(
      void* p, const Vec& v) {
    _mm512_storeu_si512(p, v);
  }
  __attribute__((target("avx512f,avx512vl"))) static void minmax(Vec& lo,
                                                               Vec& hi) {
    const __m512i mn = vmin(lo, hi);
    hi = vmax(lo, hi);
    lo = mn;
  }
  template <unsigned M>
  __attribute__((target("avx512f,avx512vl"))) static void blend(
      Vec& v, const Vec& x, const Vec& y) {
    v = _mm512_mask_blend_epi64(static_cast<__mmask8>(M), x, y);
  }
  template <bool H>
  __attribute__((target("avx512f,avx512vl"))) static void unpack(
      Vec& v, const Vec& x, const Vec& y) {
    v = H ? _mm512_maskz_unpackhi_epi64(0xFF, x, y)
          : _mm512_maskz_unpacklo_epi64(0xFF, x, y);
  }
  template <std::array<std::uint8_t, 8> P>
  __attribute__((target("avx512f,avx512vl"))) static void permute2(
      Vec& v, const Vec& x, const Vec& y) {
    const __m512i index = _mm512_set_epi64(P[7], P[6], P[5], P[4], P[3],
                                           P[2], P[1], P[0]);
    v = _mm512_maskz_permutex2var_epi64(0xFF, x, index, y);
  }
  template <unsigned J>
  __attribute__((target("avx512f,avx512vl"))) static void partner(
      Vec& p, const Vec& v) {
    if constexpr (J == 2) {
      p = _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E);  // 256-bit halves
    } else if constexpr (J == 1) {
      p = _mm512_maskz_permutex_epi64(0xFF, v, 0x4E);  // 128-bit pairs
    } else {
      p = _mm512_maskz_shuffle_epi32(0xFFFF, v, _MM_PERM_BADC);  // lanes
    }
  }
  __attribute__((target("avx512f,avx512vl"))) static void add(Vec& v,
                                                            const Vec& a) {
    v = _mm512_maskz_add_epi64(0xFF, v, a);
  }
  __attribute__((target("avx512f,avx512vl"))) static void add_masked(
      Vec& v, const Mask& k, const Vec& a) {
    v = _mm512_mask_add_epi64(v, k, v, a);
  }
  __attribute__((target("avx512f,avx512vl"))) static void reverse(Vec& v) {
    v = _mm512_maskz_permutexvar_epi64(
        0xFF, _mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v);
  }
  __attribute__((target("avx512f,avx512vl"))) static void make_mask(
      Mask& k, unsigned bits) {
    k = static_cast<Mask>(bits);
  }

 private:
  __attribute__((target("avx512f,avx512vl"))) static __m512i vmin(__m512i a,
                                                                  __m512i b) {
    if constexpr (kSigned) {
      return _mm512_maskz_min_epi64(0xFF, a, b);
    } else {
      return _mm512_maskz_min_epu64(0xFF, a, b);
    }
  }
  __attribute__((target("avx512f,avx512vl"))) static __m512i vmax(__m512i a,
                                                                  __m512i b) {
    if constexpr (kSigned) {
      return _mm512_maskz_max_epi64(0xFF, a, b);
    } else {
      return _mm512_maskz_max_epu64(0xFF, a, b);
    }
  }
};

template <typename Key>
__attribute__((target("avx512f,avx512vl"), flatten)) inline void
bitonic_steps(Key* keys, unsigned top, unsigned bottom, std::uint64_t q_lo,
              std::uint64_t q_hi, std::uint64_t dir_mask, bool descending) {
  blocked::steps<Lanes64<std::is_signed_v<Key>>>(keys, top, bottom, q_lo,
                                                 q_hi, dir_mask, descending);
}

template <typename Key>
__attribute__((target("avx512f,avx512vl"), flatten)) inline void
bitonic_tile_sort(Key* keys, unsigned b, std::uint64_t q_lo,
                  std::uint64_t q_hi, std::uint64_t dir_mask,
                  bool descending) {
  blocked::tile_sort<Lanes64<std::is_signed_v<Key>>>(keys, b, q_lo, q_hi,
                                                     dir_mask, descending);
}

template <typename Key>
__attribute__((target("avx512f,avx512vl"), flatten)) inline void
merge_split_pair(Key* lo, Key* hi, unsigned log) {
  blocked::merge_split_pair<Lanes64<std::is_signed_v<Key>>>(lo, hi, log);
}

__attribute__((target("avx512f,avx512vl"), flatten)) inline void
cube_prefix_steps(std::uint64_t* t, std::uint64_t* s, std::uint64_t len,
                  unsigned unit_log, unsigned steps) {
  blocked::cube_prefix_steps<Lanes64<true>>(t, s, len, unit_log, steps);
}

}  // namespace avx512
#endif  // DC_SIMD_HAS_AVX2_BUILD

/// In-place bitonic compare-exchange steps j = top, top-1, ..., bottom of
/// one merge pass over integral `keys`, on the bases [q_lo, q_hi) of the
/// run (see above: base q owns 2^(top-bottom+1) nodes, and a cut of the
/// base range gives disjoint pieces). A pair (u, u + 2^j) ascends — u takes
/// the min, its partner the max — iff ((u & dir_mask) == 0) != descending,
/// and descends otherwise. That is core::detail::bitonic_keep_min's rule
/// for a pass directed by one label bit (dir_mask = that bit) or by the
/// caller alone (dir_mask = 0), so dir_mask must be 0 or a power of two
/// above 2^top: all nodes of a base read the same direction.
///
/// 8-byte keys run the register-blocked loop (blocked::steps): on the
/// AVX-512 tier eight keys per register with native 64-bit min/max, on
/// AVX2 four keys per register (signed directly, unsigned through a
/// sign-bias XOR). A run of up to three steps at or above the register
/// width loads the registers of a round of bases once and applies all its
/// steps in registers; a tile run top .. 0 (top <= 3) does the same on
/// 16-node register tiles in split form: each step is one vertical minmax
/// per register pair, with static permutes between the steps' layouts
/// (blocked::tile_passes) and no lane mask. Every other key, ISA and run
/// shape runs the scalar reference. Integral keys
/// that compare equal are the same bits, so every kernel writes the bytes
/// the reference does. Callers: a replayed dual_sort's merge passes over
/// nodes, and block_sort's local sort, whose "nodes" are the keys of whole
/// blocks; both cut their passes with bitonic_run_bottom.
template <typename Key>
inline void bitonic_steps(Key* keys, unsigned top, unsigned bottom,
                          std::uint64_t q_lo, std::uint64_t q_hi,
                          std::uint64_t dir_mask, bool descending) {
  static_assert(std::is_integral_v<Key>,
                "the bitonic step kernel sorts integral keys");
#if DC_SIMD_HAS_AVX2_BUILD
  if constexpr (sizeof(Key) == 8) {
    switch (active_isa()) {
      case Isa::kAvx512:
        avx512::bitonic_steps(keys, top, bottom, q_lo, q_hi, dir_mask,
                              descending);
        return;
      case Isa::kAvx2:
        avx2::bitonic_steps(keys, top, bottom, q_lo, q_hi, dir_mask,
                            descending);
        return;
      default:
        break;
    }
  }
#endif
  scalar::bitonic_steps(keys, top, bottom, q_lo, q_hi, dir_mask, descending);
}

/// The passes a tile sort runs at most: all of a 16-node tile's.
inline constexpr unsigned kTileSortPasses = blocked::kTileLog;

/// Bitonic passes 1 .. b (1 <= b <= 4) in place over integral `keys`, on
/// the bases [q_lo, q_hi), base q owning the 2^b nodes from q·2^b: pass t
/// runs steps t-1 .. 0 and is directed by label bit t (a pair (u, u + 2^j)
/// ascends iff bit t of u is clear), the last pass b by the caller's
/// dir_mask and descending as in bitonic_steps (dir_mask 0 or a power of
/// two of at least 2^b). Sorts each 2^b-node group of an unsorted input,
/// ascending or descending by that rule: passes 1 .. b of Batcher's
/// network. 8-byte keys run each aligned 16-node tile in registers, in
/// split form, from one load to one store (blocked::tile_passes), the
/// bases of partial tiles and every other key through the reference
/// (scalar::bitonic_passes). Callers: a replayed dual_sort's passes 1 .. 4
/// and block_sort's local sort.
template <typename Key>
inline void bitonic_tile_sort(Key* keys, unsigned b, std::uint64_t q_lo,
                              std::uint64_t q_hi, std::uint64_t dir_mask,
                              bool descending) {
  static_assert(std::is_integral_v<Key>,
                "the bitonic step kernel sorts integral keys");
#if DC_SIMD_HAS_AVX2_BUILD
  if constexpr (sizeof(Key) == 8) {
    switch (active_isa()) {
      case Isa::kAvx512:
        avx512::bitonic_tile_sort(keys, b, q_lo, q_hi, dir_mask, descending);
        return;
      case Isa::kAvx2:
        avx2::bitonic_tile_sort(keys, b, q_lo, q_hi, dir_mask, descending);
        return;
      default:
        break;
    }
  }
#endif
  scalar::bitonic_passes(keys, 1, b, q_lo, q_hi, dir_mask, descending);
}

/// The lowest step of the run that starts at step `top` of a merge pass:
/// runs of three steps down to step 4 (the last one shorter where the
/// steps do not divide), then steps 3 .. 0 as one tile run.
inline unsigned bitonic_run_bottom(unsigned top) {
  return top >= blocked::kTileLog ? std::max(top - 2, blocked::kTileLog) : 0;
}

/// One merge pass over `nodes` keys: steps t-1 .. 0 in the runs
/// bitonic_run_bottom picks, each over all of its bases.
template <typename Key>
inline void bitonic_pass(Key* keys, std::uint64_t nodes, unsigned t,
                         std::uint64_t dir_mask, bool descending) {
  for (unsigned end = t; end > 0;) {
    const unsigned bottom = bitonic_run_bottom(end - 1);
    bitonic_steps(keys, end - 1, bottom, 0, nodes >> (end - bottom), dir_mask,
                  descending);
    end = bottom;
  }
}

/// The widest pair the AVX2 tier merges with its pair kernel. The bitonic
/// merge makes about m·log2(m) compare-exchanges where the select chains
/// make 2m selects, and four lanes with a cmpgt and two blends per min/max
/// only beat the chains up to here: a pair of 512-key blocks took 2.84 µs
/// against their 3.20 µs on a Xeon with AVX-512 (BM_MergeSplitPair less
/// its restore), and 1,024-key blocks were even.
inline constexpr std::size_t kAvx2PairMaxWidth = 512;

/// In-place merge-split of a pair of sorted blocks: on return `lo` holds
/// the lower `width` keys of merge(lo, hi) and `hi` the upper `width`, each
/// sorted ascending. Returns false, touching neither block, when no vector
/// kernel covers (Key, width, active ISA). Covered: integral 8-byte keys
/// at a power-of-two width of at least one register — on the AVX-512 tier
/// at any such width, on AVX2 up to kAvx2PairMaxWidth — through
/// blocked::merge_split_pair: Batcher's half-cleaner, then an ascending
/// bitonic merge of each block in registers. Integral keys that compare
/// equal are the same bits, so the blocks come out as every correct merge
/// writes them.
template <typename Key>
inline bool merge_split_pair(Key* lo, Key* hi, std::size_t width) {
#if DC_SIMD_HAS_AVX2_BUILD
  if constexpr (std::is_integral_v<Key> && sizeof(Key) == 8) {
    if ((width & (width - 1)) != 0) return false;
    const unsigned log = static_cast<unsigned>(std::countr_zero(width));
    switch (active_isa()) {
      case Isa::kAvx512:
        if (width < 8) return false;
        avx512::merge_split_pair(lo, hi, log);
        return true;
      case Isa::kAvx2:
        if (width < 4 || width > kAvx2PairMaxWidth) return false;
        avx2::merge_split_pair(lo, hi, log);
        return true;
      default:
        break;
    }
  }
#endif
  (void)lo;
  (void)hi;
  (void)width;
  return false;
}

/// Steps 0 .. steps-1 of Algorithm 1 (core/cube_prefix.hpp) over one tile
/// of `len` u64 sums, in place: step i pairs nodes j and j + unit·2^i for
/// every j whose bit log2(unit) + i is clear, sets both totals t to
/// t_j + t_partner and adds t_j to the high node's prefix s. `unit` is a
/// power of two and `len` a multiple of unit·2^steps. This is
/// core::detail::cube_prefix_butterfly for Plus<u64> at strides unit,
/// 2·unit, ..., run on registers (blocked::cube_prefix_steps): lane
/// permutes and masked adds below the register width, adds of whole
/// registers above it, the lane steps and up to three register steps per
/// load on AVX-512 (two on AVX2). Returns false, touching
/// nothing, when no vector kernel covers the tile: the scalar tier, or a
/// tile that is not a whole number of registers. 64-bit addition
/// wraps and commutes, so the sums are the reference's bits.
inline bool cube_prefix_steps(std::uint64_t* t, std::uint64_t* s,
                              std::uint64_t len, std::uint64_t unit,
                              unsigned steps) {
#if DC_SIMD_HAS_AVX2_BUILD
  const unsigned unit_log = static_cast<unsigned>(std::countr_zero(unit));
  switch (active_isa()) {
    case Isa::kAvx512:
      if (len % 8 != 0) return false;
      avx512::cube_prefix_steps(t, s, len, unit_log, steps);
      return true;
    case Isa::kAvx2:
      if (len % 4 != 0) return false;
      avx2::cube_prefix_steps(t, s, len, unit_log, steps);
      return true;
    default:
      break;
  }
#endif
  (void)t;
  (void)s;
  (void)len;
  (void)unit;
  (void)steps;
  return false;
}

}  // namespace simd
}  // namespace dc::sim
