// Vectorized replay kernels with runtime ISA dispatch.
//
// The compiled-schedule replay path (sim/machine.hpp) and the sorting and
// block algorithms (core/dual_sort.hpp, core/block_sort.hpp,
// core/block_prefix.hpp) spend their cycles in four tight loops: the
// receiver-major plane gather, the in-place bitonic compare-exchange (a
// replayed dual_sort's network and block_sort's local sort of each block),
// the sorted merge-split of 4-byte keys, and the row-wise prefix combine.
// This header implements them as explicit SIMD kernels — AVX2 on x86-64
// (all four), NEON on AArch64 (merge-split and row combine) — behind one
// runtime dispatch point, with a portable scalar fallback that is the
// reference semantics. The merge-split of 8-byte keys has no kernel here;
// core/block_sort.hpp runs it as two branch-free scalar select chains.
//
// Dispatch. active_isa() resolves once per process from the DC_SIMD
// environment variable (auto | avx2 | neon | scalar — mirroring
// DC_SCHEDULE), clamped to what the binary and the CPU actually support: a
// forced ISA that is absent falls back to scalar rather than faulting.
// Tests can override the choice with force_isa(). The AVX2 kernels are
// compiled with per-function target("avx2") attributes, so the translation
// unit itself needs no -mavx2 and the binary stays runnable on any x86-64.
//
// Determinism. Every kernel is bit-identical to the scalar reference:
//   * gather/copy kernels move bytes — no arithmetic at all;
//   * bitonic_steps writes the min and the max of each compared pair of
//     integral keys; equal keys are identical bit patterns, so it does not
//     matter which kernel picks which;
//   * merge_split produces the sorted lower/upper half of a merged pair of
//     sorted blocks. That output is a pure function of the input multiset
//     (for integral keys, equal keys are identical bit patterns), so any
//     correct merge — two-pointer scalar or bitonic-network SIMD — yields
//     byte-identical arrays;
//   * add_rows is lane-wise u64 addition, which is associative and
//     order-free per element.
// Replay therefore stays deterministic across ISAs, which the simd_test
// parity suite asserts on every width class.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>

#if defined(__x86_64__) || defined(_M_X64)
#define DC_SIMD_HAS_AVX2_BUILD 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define DC_SIMD_HAS_NEON_BUILD 1
#include <arm_neon.h>
#endif

namespace dc::sim {
namespace simd {

enum class Isa { kScalar, kAvx2, kNeon };

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

/// Best ISA this binary can run on this CPU.
inline Isa detect_best() {
#if DC_SIMD_HAS_AVX2_BUILD
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
#if DC_SIMD_HAS_NEON_BUILD
  return Isa::kNeon;
#endif
  return Isa::kScalar;
}

namespace detail {
/// Test override: -1 = none, otherwise the forced Isa value.
inline std::atomic<int> forced_isa{-1};

inline Isa env_isa() {
  static const Isa isa = [] {
    const char* e = std::getenv("DC_SIMD");
    const std::string_view v = e ? std::string_view(e) : "auto";
    const Isa best = detect_best();
    if (v == "scalar") return Isa::kScalar;
    if (v == "avx2") return best == Isa::kAvx2 ? Isa::kAvx2 : Isa::kScalar;
    if (v == "neon") return best == Isa::kNeon ? Isa::kNeon : Isa::kScalar;
    return best;  // "auto" (and anything unrecognized)
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
  if (isa != Isa::kScalar && detect_best() != isa) return false;
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

// Unaligned load/store helpers: lambdas do NOT inherit a target attribute,
// so the merge loops call these named helpers instead.
__attribute__((target("avx2"))) inline __m256i loadu(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
__attribute__((target("avx2"))) inline void storeu(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

// ---- 32-bit lane helpers (8 lanes per __m256i) ---------------------------
// There is no 64-bit merge network here: AVX2 lacks 64-bit min/max (they
// arrive with AVX-512F), so each 4-lane minmax would cost a cmpgt_epi64
// plus two blendv's (plus a sign-bias XOR pair for unsigned keys). Only
// 4-byte keys (native min_epi32/min_epu32, 8 lanes) are vectorized; 8-byte
// keys take core/block_sort.hpp's two branch-free scalar select chains.

template <bool kSigned>
__attribute__((target("avx2"))) inline void minmax32(__m256i& x, __m256i& y) {
  __m256i mn;
  __m256i mx;
  if constexpr (kSigned) {
    mn = _mm256_min_epi32(x, y);
    mx = _mm256_max_epi32(x, y);
  } else {
    mn = _mm256_min_epu32(x, y);
    mx = _mm256_max_epu32(x, y);
  }
  x = mn;
  y = mx;
}

__attribute__((target("avx2"))) inline __m256i reverse8_32(__m256i v) {
  const __m256i idx = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  return _mm256_permutevar8x32_epi32(v, idx);
}

/// Sorts a bitonic 8-lane vector ascending (three clean stages).
template <bool kSigned>
__attribute__((target("avx2"))) inline __m256i clean8_32(__m256i v) {
  __m256i p = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  __m256i mn = v;
  __m256i mx = p;
  minmax32<kSigned>(mn, mx);
  v = _mm256_blend_epi32(mn, mx, 0xF0);  // distance 4
  p = _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
  mn = v;
  mx = p;
  minmax32<kSigned>(mn, mx);
  v = _mm256_blend_epi32(mn, mx, 0xCC);  // distance 2
  p = _mm256_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1));
  mn = v;
  mx = p;
  minmax32<kSigned>(mn, mx);
  v = _mm256_blend_epi32(mn, mx, 0xAA);  // distance 1
  return v;
}

template <bool kSigned>
__attribute__((target("avx2"))) inline void merge16_32(__m256i& a,
                                                       __m256i& b) {
  b = reverse8_32(b);
  minmax32<kSigned>(a, b);
  a = clean8_32<kSigned>(a);
  b = clean8_32<kSigned>(b);
}

// ---- streaming merge-split kernels ---------------------------------------
// Classic vector-merge loop: keep a sorted carry register of the L largest
// (keep-min) or smallest (keep-max) elements seen so far, and at each step
// feed it the next L-element vector from whichever input's head (tail)
// comes first in merge order. Emits L output elements per step; stops once
// `width` outputs are placed — the kept half is produced directly, nothing
// of the discarded half is written.

template <typename Key>
__attribute__((target("avx2"))) inline void merge_split_32(
    const Key* a, const Key* b, std::size_t width, bool keep_min, Key* out) {
  static_assert(sizeof(Key) == 4);
  constexpr bool kSigned = std::is_signed_v<Key>;
  if (keep_min) {
    __m256i lo = loadu(a);
    __m256i carry = loadu(b);
    merge16_32<kSigned>(lo, carry);
    storeu(out, lo);
    std::size_t ia = 8;
    std::size_t ib = 8;
    for (std::size_t k = 8; k < width; k += 8) {
      __m256i next;
      if (ib >= width || (ia < width && !(b[ib] < a[ia]))) {
        next = loadu(a + ia);
        ia += 8;
      } else {
        next = loadu(b + ib);
        ib += 8;
      }
      merge16_32<kSigned>(next, carry);
      storeu(out + k, next);
    }
  } else {
    __m256i carry = loadu(a + width - 8);
    __m256i hi = loadu(b + width - 8);
    merge16_32<kSigned>(carry, hi);
    storeu(out + width - 8, hi);
    std::size_t ia = width - 8;
    std::size_t ib = width - 8;
    for (std::size_t k = width - 8; k > 0; k -= 8) {
      __m256i next;
      if (ib == 0 || (ia > 0 && !(a[ia - 1] < b[ib - 1]))) {
        ia -= 8;
        next = loadu(a + ia);
      } else {
        ib -= 8;
        next = loadu(b + ib);
      }
      merge16_32<kSigned>(next, carry);
      storeu(out + k - 8, carry);
      carry = next;
    }
  }
}

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

// ---- in-place bitonic compare-exchange, 8-byte keys ----------------------
// AVX2 has no 64-bit min/max, so each compare-exchange is one signed
// cmpgt_epi64 and blends. Unlike the merge network above, a bitonic step
// compares whole registers of independent pairs (a tile step adds one
// permute), so the substitute pays here. Unsigned keys compare through
// a sign-bias XOR: flipping bit 63 maps unsigned order onto signed order,
// and the XOR is undone on the way out, so every stored lane is one of
// the input keys.

template <typename Key>
__attribute__((target("avx2"))) inline __m256i order_bits(__m256i v) {
  if constexpr (std::is_unsigned_v<Key>) {
    return _mm256_xor_si256(v, _mm256_set1_epi64x(INT64_MIN));
  } else {
    return v;
  }
}

/// Lane-wise compare-exchange of v against its partners p, both in
/// order_bits form: each lane keeps the min where `keep_min` is all-ones,
/// the max where it is zero.
__attribute__((target("avx2"))) inline __m256i keep_side(__m256i v, __m256i p,
                                                         __m256i keep_min) {
  // v > p: the min is p, the max v. Keep v iff that matches the side.
  return _mm256_blendv_epi8(
      p, v, _mm256_xor_si256(_mm256_cmpgt_epi64(v, p), keep_min));
}

/// One step j >= 3 over pairs [p_lo, p_hi) (simd::bitonic_steps): vertical
/// min/max over each group's contiguous low and high half, four pairs per
/// register. The direction is one test per group.
template <typename Key>
__attribute__((target("avx2"))) inline void bitonic_step_halves(
    Key* keys, unsigned j, std::uint64_t p_lo, std::uint64_t p_hi,
    std::uint64_t dir_mask, bool descending) {
  const std::uint64_t half = std::uint64_t{1} << j;
  for (std::uint64_t p = p_lo; p < p_hi;) {
    const std::uint64_t end = std::min(p_hi, (p | (half - 1)) + 1);
    const std::uint64_t lo = ((p >> j) << (j + 1)) | (p & (half - 1));
    const bool ascending = ((lo & dir_mask) == 0) != descending;
    Key* const a = keys + lo;
    Key* const b = a + half;
    Key* const to_min = ascending ? a : b;
    Key* const to_max = ascending ? b : a;
    const std::uint64_t len = end - p;
    std::uint64_t i = 0;
    for (; i + 4 <= len; i += 4) {
      const __m256i x = loadu(a + i);
      const __m256i y = loadu(b + i);
      const __m256i gt =
          _mm256_cmpgt_epi64(order_bits<Key>(x), order_bits<Key>(y));
      storeu(to_min + i, _mm256_blendv_epi8(x, y, gt));
      storeu(to_max + i, _mm256_blendv_epi8(y, x, gt));
    }
    for (; i < len; ++i) {
      const Key x = a[i];
      const Key y = b[i];
      to_min[i] = y < x ? y : x;
      to_max[i] = y < x ? x : y;
    }
    p = end;
  }
}

/// Steps top .. bottom (top <= 2) over the 8-node tiles of nodes [lo, hi)
/// (simd::bitonic_steps), each tile held in two registers across the
/// steps and compared in order_bits form: dimension 2 pairs the registers
/// lane by lane, dimension 1 swaps 128-bit halves, dimension 0 swaps
/// neighbouring lanes. Each lane's keep-min mask is the pass's rule
/// evaluated at its node: bits 0-2 of the rule come from the lane, and a
/// direction bit at 3 or above flips every lane of a tile, so the masks
/// come in two sets and each tile loads one.
template <typename Key>
__attribute__((target("avx2"))) inline void bitonic_steps_tiles(
    Key* keys, unsigned top, unsigned bottom, std::uint64_t lo,
    std::uint64_t hi, std::uint64_t dir_mask, bool descending) {
  // keep[f][j] holds lanes 0-3 then 4-7 of step j's keep-min mask in a
  // tile with flip f. Dimension 2 compares a against b once and reads
  // "b > a" as "not a > b" (equal keys are the same bits either way), so
  // its lanes 4-7 are stored complemented.
  std::int64_t keep[2][3][8];
  for (unsigned f = 0; f < 2; ++f) {
    for (unsigned j = 0; j < 3; ++j) {
      for (std::uint64_t i = 0; i < 8; ++i) {
        const bool ascending =
            (((i & dir_mask) == 0) != descending) != (f == 1);
        const bool keep_min = ascending == (((i >> j) & 1) == 0);
        keep[f][j][i] = keep_min != (j == 2 && i >= 4) ? -1 : 0;
      }
    }
  }
  const bool d2 = top >= 2 && bottom <= 2;
  const bool d1 = top >= 1 && bottom <= 1;
  const bool d0 = bottom == 0;
  const std::uint64_t tile_dir = dir_mask & ~std::uint64_t{7};
  for (std::uint64_t u = lo; u < hi; u += 8) {
    const std::int64_t(&k)[3][8] = keep[(u & tile_dir) != 0 ? 1 : 0];
    __m256i a = order_bits<Key>(loadu(keys + u));
    __m256i b = order_bits<Key>(loadu(keys + u + 4));
    if (d2) {
      const __m256i gt = _mm256_cmpgt_epi64(a, b);
      const __m256i na =
          _mm256_blendv_epi8(b, a, _mm256_xor_si256(gt, loadu(&k[2][0])));
      b = _mm256_blendv_epi8(a, b, _mm256_xor_si256(gt, loadu(&k[2][4])));
      a = na;
    }
    if (d1) {
      a = keep_side(a, _mm256_permute4x64_epi64(a, 0x4E), loadu(&k[1][0]));
      b = keep_side(b, _mm256_permute4x64_epi64(b, 0x4E), loadu(&k[1][4]));
    }
    if (d0) {
      a = keep_side(a, _mm256_shuffle_epi32(a, 0x4E), loadu(&k[0][0]));
      b = keep_side(b, _mm256_shuffle_epi32(b, 0x4E), loadu(&k[0][4]));
    }
    storeu(keys + u, order_bits<Key>(a));
    storeu(keys + u + 4, order_bits<Key>(b));
  }
}

}  // namespace avx2
#endif  // DC_SIMD_HAS_AVX2_BUILD

#if DC_SIMD_HAS_NEON_BUILD
namespace neon {

// 32-bit merge kernel (4 lanes per uint32x4_t); 64-bit keys fall back to
// scalar on NEON — two lanes per vector leave no merge-network win.

template <typename Key>
inline auto load4(const Key* p) {
  if constexpr (std::is_signed_v<Key>) {
    return vld1q_s32(reinterpret_cast<const std::int32_t*>(p));
  } else {
    return vld1q_u32(reinterpret_cast<const std::uint32_t*>(p));
  }
}

template <typename Key, typename Vec>
inline void store4(Key* p, Vec v) {
  if constexpr (std::is_signed_v<Key>) {
    vst1q_s32(reinterpret_cast<std::int32_t*>(p), v);
  } else {
    vst1q_u32(reinterpret_cast<std::uint32_t*>(p), v);
  }
}

inline void minmax(uint32x4_t& x, uint32x4_t& y) {
  const uint32x4_t mn = vminq_u32(x, y);
  y = vmaxq_u32(x, y);
  x = mn;
}
inline void minmax(int32x4_t& x, int32x4_t& y) {
  const int32x4_t mn = vminq_s32(x, y);
  y = vmaxq_s32(x, y);
  x = mn;
}

inline uint32x4_t pairs_swapped(uint32x4_t v) { return vrev64q_u32(v); }
inline int32x4_t pairs_swapped(int32x4_t v) { return vrev64q_s32(v); }
inline uint32x4_t halves_swapped(uint32x4_t v) { return vextq_u32(v, v, 2); }
inline int32x4_t halves_swapped(int32x4_t v) { return vextq_s32(v, v, 2); }

template <typename Vec>
inline Vec reverse4(Vec v) {
  return halves_swapped(pairs_swapped(v));
}

inline uint32x4_t blend(uint32x4_t mn, uint32x4_t mx, uint32x4_t take_mx) {
  return vbslq_u32(take_mx, mx, mn);
}
inline int32x4_t blend(int32x4_t mn, int32x4_t mx, uint32x4_t take_mx) {
  return vbslq_s32(take_mx, mx, mn);
}

template <typename Vec>
inline Vec clean4(Vec v) {
  const uint32x4_t upper2 = {0u, 0u, ~0u, ~0u};
  const uint32x4_t odd = {0u, ~0u, 0u, ~0u};
  Vec p = halves_swapped(v);
  Vec mn = v;
  Vec mx = p;
  minmax(mn, mx);
  v = blend(mn, mx, upper2);  // distance 2
  p = pairs_swapped(v);
  mn = v;
  mx = p;
  minmax(mn, mx);
  v = blend(mn, mx, odd);  // distance 1
  return v;
}

template <typename Vec>
inline void merge8(Vec& a, Vec& b) {
  b = reverse4(b);
  minmax(a, b);
  a = clean4(a);
  b = clean4(b);
}

template <typename Key>
inline void merge_split_32(const Key* a, const Key* b, std::size_t width,
                           bool keep_min, Key* out) {
  static_assert(sizeof(Key) == 4);
  if (keep_min) {
    auto lo = load4(a);
    auto carry = load4(b);
    merge8(lo, carry);
    store4(out, lo);
    std::size_t ia = 4;
    std::size_t ib = 4;
    for (std::size_t k = 4; k < width; k += 4) {
      decltype(lo) next;
      if (ib >= width || (ia < width && !(b[ib] < a[ia]))) {
        next = load4(a + ia);
        ia += 4;
      } else {
        next = load4(b + ib);
        ib += 4;
      }
      merge8(next, carry);
      store4(out + k, next);
    }
  } else {
    auto carry = load4(a + width - 4);
    auto hi = load4(b + width - 4);
    merge8(carry, hi);
    store4(out + width - 4, hi);
    std::size_t ia = width - 4;
    std::size_t ib = width - 4;
    for (std::size_t k = width - 4; k > 0; k -= 4) {
      decltype(hi) next;
      if (ib == 0 || (ia > 0 && !(a[ia - 1] < b[ib - 1]))) {
        ia -= 4;
        next = load4(a + ia);
      } else {
        ib -= 4;
        next = load4(b + ib);
      }
      merge8(next, carry);
      store4(out + k - 4, carry);
      carry = next;
    }
  }
}

inline void add_rows_u64(std::uint64_t* cur, const std::uint64_t* prev,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(cur + i, vaddq_u64(vld1q_u64(prev + i), vld1q_u64(cur + i)));
  }
  for (; i < n; ++i) cur[i] = prev[i] + cur[i];
}

}  // namespace neon
#endif  // DC_SIMD_HAS_NEON_BUILD

/// Vectorized merge-split: writes the lower (keep_min) or upper `width`
/// keys of merge(a, b) into out (a, b sorted ascending; out must not alias
/// them). Returns false — without touching out — when no vector kernel
/// covers (Key, width, active ISA); the caller then runs its scalar
/// reference. Handled today: integral 4-byte keys at width % 8 == 0 on
/// AVX2 and width % 4 == 0 on NEON. 8-byte keys always decline: without
/// native 64-bit min/max (AVX-512F) there is no merge network for them,
/// and the caller's branch-free select chains merge them. Output is
/// bit-identical to the scalar two-pointer merge-split.
template <typename Key>
inline bool merge_split(const Key* a, const Key* b, std::size_t width,
                        bool keep_min, Key* out) {
  if constexpr (std::is_integral_v<Key> && sizeof(Key) == 4) {
    const Isa isa = active_isa();
#if DC_SIMD_HAS_AVX2_BUILD
    if (isa == Isa::kAvx2) {
      if (width >= 8 && width % 8 == 0) {
        avx2::merge_split_32(a, b, width, keep_min, out);
        return true;
      }
    }
#endif
#if DC_SIMD_HAS_NEON_BUILD
    if (isa == Isa::kNeon) {
      if (width >= 4 && width % 4 == 0) {
        neon::merge_split_32(a, b, width, keep_min, out);
        return true;
      }
    }
#endif
    (void)isa;
  }
  (void)a;
  (void)b;
  (void)width;
  (void)keep_min;
  (void)out;
  return false;
}

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
    if (width == 1 && src_stride == 1 && active_isa() == Isa::kAvx2) {
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
  if (active_isa() == Isa::kAvx2) {
    avx2::add_rows_u64(cur, prev, n);
    return;
  }
#endif
#if DC_SIMD_HAS_NEON_BUILD
  if (active_isa() == Isa::kNeon) {
    neon::add_rows_u64(cur, prev, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) cur[i] = prev[i] + cur[i];
}

namespace scalar {

/// The reference semantics of simd::bitonic_steps: pair by pair, in runs
/// of consecutive pairs within one group (one direction test per run),
/// with branch-free min/max selects.
template <typename Key>
inline void bitonic_steps(Key* keys, unsigned top, unsigned bottom,
                          std::uint64_t p_lo, std::uint64_t p_hi,
                          std::uint64_t dir_mask, bool descending) {
  for (unsigned j = top + 1; j-- > bottom;) {
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
}

}  // namespace scalar

/// In-place bitonic compare-exchange steps j = top, top-1, ..., bottom of
/// one merge pass over integral `keys`, each step over the pairs
/// [p_lo, p_hi) of its dimension: pair p of dimension j is node
/// lo = ((p >> j) << (j+1)) | (p mod 2^j) and its partner lo + 2^j. The
/// pair ascends — lo takes the min, its partner the max — iff
/// ((lo & dir_mask) == 0) != descending, and descends otherwise. That is
/// core::detail::bitonic_keep_min's rule for a pass directed by one label
/// bit (dir_mask = that bit) or by the caller alone (dir_mask = 0), so
/// dir_mask must be 0 or a power of two above 2^top: both nodes of a pair
/// read the same direction. A run of several steps needs p_lo and p_hi to
/// be multiples of 2^top; every step then covers the same nodes
/// [2 p_lo, 2 p_hi) and stays inside them, so disjoint ranges may run
/// concurrently.
///
/// AVX2 runs 8-byte keys (signed directly, unsigned through a sign-bias
/// XOR): each step j >= 3 as vertical min/max over contiguous half-groups,
/// then steps 2, 1, 0 together on 8-node tiles in registers. Every other
/// key and ISA runs the scalar reference. Integral keys that compare equal
/// are the same bits, so every kernel writes the bytes the reference does.
/// Callers: a replayed dual_sort's merge passes over nodes, and
/// block_sort's local sort, whose "nodes" are the keys of whole blocks.
template <typename Key>
inline void bitonic_steps(Key* keys, unsigned top, unsigned bottom,
                          std::uint64_t p_lo, std::uint64_t p_hi,
                          std::uint64_t dir_mask, bool descending) {
  static_assert(std::is_integral_v<Key>,
                "the bitonic step kernel sorts integral keys");
#if DC_SIMD_HAS_AVX2_BUILD
  if constexpr (sizeof(Key) == 8) {
    if (active_isa() == Isa::kAvx2) {
      unsigned j = top + 1;
      for (; j-- > std::max(bottom, 3u);)
        avx2::bitonic_step_halves(keys, j, p_lo, p_hi, dir_mask, descending);
      if (bottom > 2) return;
      const unsigned low_top = std::min(top, 2u);
      if (p_lo % 4 == 0 && p_hi % 4 == 0) {
        avx2::bitonic_steps_tiles(keys, low_top, bottom, 2 * p_lo, 2 * p_hi,
                                  dir_mask, descending);
      } else {
        scalar::bitonic_steps(keys, low_top, bottom, p_lo, p_hi, dir_mask,
                              descending);
      }
      return;
    }
  }
#endif
  scalar::bitonic_steps(keys, top, bottom, p_lo, p_hi, dir_mask, descending);
}

}  // namespace simd
}  // namespace dc::sim
