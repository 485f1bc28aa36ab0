// Vectorized replay kernels with runtime ISA dispatch.
//
// The compiled-schedule replay path (sim/machine.hpp) and the sorting and
// block algorithms (core/dual_sort.hpp, core/block_sort.hpp,
// core/block_prefix.hpp, core/dual_prefix.hpp) spend their cycles in six
// tight loops: the receiver-major plane gather, the in-place bitonic
// compare-exchange (a replayed dual_sort's network and block_sort's local
// sort of each block), the sorted merge-split of 4-byte keys, the
// in-place merge-split of a pair of 8-byte blocks (a replayed
// block_sort's network), the Cube_prefix steps of a u64 sum (a replayed
// dual_prefix's cluster passes), and the row-wise prefix combine. This
// header implements them as explicit SIMD kernels — AVX2 on x86-64 (all
// six; the pair up to a width bound), AVX-512 on x86-64 CPUs that have it
// (the bitonic steps, the pair and the prefix steps), NEON on AArch64
// (merge-split and row combine) — behind one runtime
// dispatch point, with a portable scalar fallback that is the reference
// semantics. A one-sided merge-split of 8-byte keys, and a pair that no
// kernel covers, run core/block_sort.hpp's two branch-free scalar select
// chains.
//
// Dispatch. active_isa() resolves once per process from the DC_SIMD
// environment variable (auto | avx2 | neon | scalar — mirroring
// DC_SCHEDULE), clamped to what the binary and the CPU actually support: a
// forced ISA that is absent falls back to scalar rather than faulting.
// `auto` picks the best tier: AVX-512 (AVX-512F and VL) over AVX2 over
// scalar on x86-64. The AVX-512 tier runs its own bitonic step, pair and
// prefix step kernels and the AVX2 code of every other kernel, so
// DC_SIMD=avx2 on an AVX-512 CPU still runs the AVX2 kernels. Tests can
// override the choice with force_isa(). The vector kernels are compiled with per-function target
// attributes, so the translation unit itself needs no -mavx2 or -mavx512f
// and the binary stays runnable on any x86-64; a CPU without AVX-512F/VL
// never reaches an AVX-512 instruction.
//
// Determinism. Every kernel is bit-identical to the scalar reference:
//   * gather/copy kernels move bytes — no arithmetic at all;
//   * bitonic_steps writes the min and the max of each compared pair of
//     integral keys; equal keys are identical bit patterns, so it does not
//     matter which kernel picks which;
//   * merge_split and merge_split_pair produce the sorted lower/upper half
//     of a merged pair of sorted blocks. That output is a pure function of
//     the input multiset (for integral keys, equal keys are identical bit
//     patterns), so any correct merge — two-pointer scalar or
//     bitonic-network SIMD — yields byte-identical arrays;
//   * add_rows and cube_prefix_steps are lane-wise u64 addition, which
//     wraps, associates and commutes, so every grouping of the sums gives
//     the reference's bits.
// Replay therefore stays deterministic across ISAs, which the simd_test
// parity suite asserts on every width class.
#pragma once

#include <algorithm>
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
#if defined(__aarch64__) && defined(__ARM_NEON)
#define DC_SIMD_HAS_NEON_BUILD 1
#include <arm_neon.h>
#endif

namespace dc::sim {
namespace simd {

enum class Isa { kScalar, kAvx2, kNeon, kAvx512 };

inline const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
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
#if DC_SIMD_HAS_NEON_BUILD
    case Isa::kNeon:
      return true;
#endif
    default:
      return false;
  }
}

/// Best ISA this binary can run on this CPU.
inline Isa detect_best() {
  for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
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
    if (v == "neon") return supported(Isa::kNeon) ? Isa::kNeon : Isa::kScalar;
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

// Unaligned load/store helpers: lambdas do NOT inherit a target attribute,
// so the merge loops call these named helpers instead.
__attribute__((target("avx2"))) inline __m256i loadu(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}
__attribute__((target("avx2"))) inline void storeu(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

// ---- 32-bit lane helpers (8 lanes per __m256i) ---------------------------
// The streaming merge below takes 4-byte keys (native min_epi32/min_epu32,
// 8 lanes). AVX2 lacks 64-bit min/max, so each 4-lane minmax of 8-byte keys
// costs a cmpgt_epi64 plus two blendv's (plus a sign-bias XOR pair for
// unsigned keys); native vpminuq/vpmaxuq arrive with AVX-512F. 8-byte keys
// are merged only in pairs, in place, by the register-blocked pair kernel
// (blocked::merge_split_pair), which runs on both tiers.

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
/// AVX2 (and so on the AVX-512 tier) and width % 4 == 0 on NEON. 8-byte
/// keys decline this one-sided form: their vector kernel merges both sides
/// of a pair in place (merge_split_pair), which is what a replayed block
/// sort runs, and a per-node merge runs the caller's branch-free select
/// chains. Output is bit-identical to the scalar two-pointer merge-split.
template <typename Key>
inline bool merge_split(const Key* a, const Key* b, std::size_t width,
                        bool keep_min, Key* out) {
  if constexpr (std::is_integral_v<Key> && sizeof(Key) == 4) {
    const Isa isa = active_isa();
#if DC_SIMD_HAS_AVX2_BUILD
    if (runs_avx2(isa)) {
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
#if DC_SIMD_HAS_NEON_BUILD
  if (active_isa() == Isa::kNeon) {
    neon::add_rows_u64(cur, prev, n);
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

}  // namespace scalar

// The register-blocked loops of simd::bitonic_steps,
// simd::merge_split_pair and simd::cube_prefix_steps, written once over a
// lane-traits type L (avx2::Lanes64, avx512::Lanes64) for 8-byte keys:
//   Vec, Mask                 a register of 2^L::kLog keys, a lane mask;
//   kLiveLog                  log2 of the registers of keys a loop keeps
//                             live at once (half the register file);
//   load(v, p), store(p, v)   move one register from and to memory;
//   minmax(lo, hi)            lo takes the lane-wise min, hi the max;
//   exchange(x, y, k)         x keeps the min in the lanes of k and the max
//                             elsewhere, y the other side;
//   exchange_lanes<J>(v, k)   each lane against the lane 2^J away
//                             (J < kLog), keeping the min in the lanes of k;
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

/// A tile run (steps top .. 0, top <= 3) works on register tiles of
/// 2^kTileLog consecutive nodes.
inline constexpr unsigned kTileLog = 4;

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

/// Steps J .. 0 of a tile held in registers r: a step at or above the
/// register width pairs registers, a step below it pairs lanes.
/// keep[j][s] is register s's keep-min mask at step j.
template <typename L, unsigned J, std::size_t R, std::size_t S>
inline void tile_steps(typename L::Vec (&r)[R],
                       const typename L::Mask (&keep)[S][R]) {
  if constexpr (J >= L::kLog) {
    constexpr std::size_t d = std::size_t{1} << (J - L::kLog);
#pragma GCC unroll 4
    for (std::size_t s = 0; s < R; ++s) {
      if ((s & d) == 0) L::exchange(r[s], r[s | d], keep[J][s]);
    }
  } else {
#pragma GCC unroll 4
    for (std::size_t s = 0; s < R; ++s)
      L::template exchange_lanes<J>(r[s], keep[J][s]);
  }
  if constexpr (J > 0) tile_steps<L, J - 1>(r, keep);
}

/// Steps Top .. 0 (Top <= 3) over bases [q_lo, q_hi), a register tile of
/// 16 nodes at a time, the bases of partial tiles at either end through
/// the reference. A lane's keep-min mask is the pass's rule evaluated at
/// its node: bits 0-3 of the rule come from the node's place in the tile,
/// and a direction bit at 4 or above flips the whole tile, so the masks
/// come in two sets and each tile picks one.
template <typename L, unsigned Top, typename Key>
inline void tiles(Key* keys, std::uint64_t q_lo, std::uint64_t q_hi,
                  std::uint64_t dir_mask, bool descending) {
  constexpr unsigned kTile = 1u << kTileLog;
  constexpr unsigned kLanes = 1u << L::kLog;
  constexpr unsigned kRegs = kTile / kLanes;
  constexpr std::uint64_t kBases = kTile >> (Top + 1);
  const std::uint64_t t_lo = (q_lo + kBases - 1) / kBases;
  const std::uint64_t t_hi = q_hi / kBases;
  if (t_lo >= t_hi) {  // no whole tile
    scalar::leftover_steps(keys, Top, 0, q_lo, q_hi, dir_mask, descending);
    return;
  }
  if (q_lo < t_lo * kBases) {
    scalar::leftover_steps(keys, Top, 0, q_lo, t_lo * kBases, dir_mask,
                           descending);
  }
  if (t_hi * kBases < q_hi) {
    scalar::leftover_steps(keys, Top, 0, t_hi * kBases, q_hi, dir_mask,
                           descending);
  }
  typename L::Mask keep[2][Top + 1][kRegs];
  for (unsigned f = 0; f < 2; ++f) {
    for (unsigned j = 0; j <= Top; ++j) {
      for (unsigned s = 0; s < kRegs; ++s) {
        unsigned bits = 0;
        for (unsigned i = 0; i < kLanes; ++i) {
          const std::uint64_t u = s * kLanes + i;
          const bool ascending =
              (((u & dir_mask) == 0) != descending) != (f == 1);
          bits |= unsigned{ascending == (((u >> j) & 1) == 0)} << i;
        }
        L::make_mask(keep[f][j][s], bits);
      }
    }
  }
  const std::uint64_t tile_dir = dir_mask & ~std::uint64_t{kTile - 1};
  for (std::uint64_t t = t_lo; t < t_hi; ++t) {
    Key* const at = keys + t * kTile;
    typename L::Vec r[kRegs];
#pragma GCC unroll 4
    for (unsigned s = 0; s < kRegs; ++s) L::load(r[s], at + s * kLanes);
    tile_steps<L, Top>(r, keep[((t * kTile) & tile_dir) != 0 ? 1 : 0]);
#pragma GCC unroll 4
    for (unsigned s = 0; s < kRegs; ++s) L::store(at + s * kLanes, r[s]);
  }
}

/// simd::bitonic_steps on lane traits L: a tile run on register tiles,
/// a run of up to three steps at or above the register width in vertical
/// rounds, any other run through the reference.
template <typename L, typename Key>
inline void steps(Key* keys, unsigned top, unsigned bottom,
                  std::uint64_t q_lo, std::uint64_t q_hi,
                  std::uint64_t dir_mask, bool descending) {
  if (bottom == 0 && top < kTileLog) {
    switch (top) {
      case 0:
        tiles<L, 0>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      case 1:
        tiles<L, 1>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      case 2:
        tiles<L, 2>(keys, q_lo, q_hi, dir_mask, descending);
        return;
      default:
        tiles<L, 3>(keys, q_lo, q_hi, dir_mask, descending);
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

// simd::merge_split_pair on lane traits L. Batcher's half-cleaner first:
// lo[i] and hi[m-1-i] take their min and max, so lo holds the lower m keys
// of the pair and hi the upper m, each a bitonic sequence. Then an
// ascending bitonic merge sorts each block: its steps pair keys m/2 .. 1
// apart, registers while the distance spans whole registers, lanes below.

/// Lane steps J .. 0 of an ascending merge over the registers r; keep[J]
/// holds the lanes whose bit J is clear, which keep the min.
template <typename L, unsigned J, std::size_t R>
inline void ascending_lane_steps(typename L::Vec (&r)[R],
                                 const typename L::Mask (&keep)[L::kLog]) {
#pragma GCC unroll 16
  for (std::size_t s = 0; s < R; ++s)
    L::template exchange_lanes<J>(r[s], keep[J]);
  if constexpr (J > 0) ascending_lane_steps<L, J - 1>(r, keep);
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

/// Sorts ascending the bitonic sequence held in the registers r, register
/// s holding its keys s·2^kLog onward.
template <typename L, std::size_t R>
inline void merge_registers(typename L::Vec (&r)[R],
                            const typename L::Mask (&keep)[L::kLog]) {
  ascending_register_steps<L, R / 2>(r);
  ascending_lane_steps<L, L::kLog - 1>(r, keep);
}

/// A pair of R registers per block, held in registers from load to store.
/// The half-cleaner reads hi reversed, so its max side comes out as hi's
/// bitonic sequence read backwards, which the ascending merge sorts all
/// the same: hi is stored in order, with no second reversal.
template <typename L, std::size_t R, typename Key>
inline void pair_in_registers(Key* lo, Key* hi,
                              const typename L::Mask (&keep)[L::kLog]) {
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
  merge_registers<L>(x, keep);
  merge_registers<L>(y, keep);
#pragma GCC unroll 16
  for (std::size_t s = 0; s < R; ++s) {
    L::store(lo + s * kLanes, x[s]);
    L::store(hi + s * kLanes, y[s]);
  }
}

/// A pair of 2^log keys per block, too wide to hold in registers: one
/// half-cleaner pass over both blocks, then per block the merge's steps at
/// or above the chunk of 2^kLiveLog registers in vertical rounds of up to
/// three steps, then each chunk in registers.
template <typename L, typename Key>
inline void pair_in_passes(Key* lo, Key* hi, unsigned log,
                           const typename L::Mask (&keep)[L::kLog]) {
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
      merge_registers<L>(r, keep);
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
inline void pair_by_width(Key* lo, Key* hi, std::size_t regs, unsigned log,
                          const typename L::Mask (&keep)[L::kLog]) {
  if constexpr (2 * R <= (std::size_t{1} << L::kLiveLog)) {
    if (regs == R) {
      pair_in_registers<L, R>(lo, hi, keep);
      return;
    }
    pair_by_width<L, 2 * R>(lo, hi, regs, log, keep);
  } else {
    pair_in_passes<L>(lo, hi, log, keep);
  }
}

/// simd::merge_split_pair on lane traits L, for a width 2^log of at least
/// one register.
template <typename L, typename Key>
inline void merge_split_pair(Key* lo, Key* hi, unsigned log) {
  typename L::Mask keep[L::kLog];
  for (unsigned j = 0; j < L::kLog; ++j) {
    unsigned bits = 0;
    for (unsigned i = 0; i < (1u << L::kLog); ++i)
      bits |= unsigned{((i >> j) & 1) == 0} << i;
    L::make_mask(keep[j], bits);
  }
  pair_by_width<L, 1>(lo, hi, std::size_t{1} << (log - L::kLog), log, keep);
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
  using Mask = __m256i;  // all-ones lanes keep the min
  static constexpr unsigned kLog = 2;
  static constexpr unsigned kLiveLog = 3;  // 8 of the 16 ymm registers

  __attribute__((target("avx2"))) static void load(Vec& v, const void* p) {
    v = order(loadu(p));
  }
  __attribute__((target("avx2"))) static void store(void* p, const Vec& v) {
    storeu(p, order(v));
  }
  __attribute__((target("avx2"))) static void minmax(Vec& lo, Vec& hi) {
    const __m256i gt = _mm256_cmpgt_epi64(lo, hi);
    const __m256i mn = _mm256_blendv_epi8(lo, hi, gt);
    hi = _mm256_blendv_epi8(hi, lo, gt);
    lo = mn;
  }
  __attribute__((target("avx2"))) static void exchange(Vec& x, Vec& y,
                                                       const Mask& keep_min) {
    // x > y: the min is y. Equal lanes are the same bits either way.
    const __m256i take_x =
        _mm256_xor_si256(_mm256_cmpgt_epi64(x, y), keep_min);
    const __m256i nx = _mm256_blendv_epi8(y, x, take_x);
    y = _mm256_blendv_epi8(x, y, take_x);
    x = nx;
  }
  template <unsigned J>
  __attribute__((target("avx2"))) static void exchange_lanes(
      Vec& v, const Mask& keep_min) {
    __m256i p;
    partner<J>(p, v);
    v = _mm256_blendv_epi8(
        p, v, _mm256_xor_si256(_mm256_cmpgt_epi64(v, p), keep_min));
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
  using Mask = __mmask8;  // set lanes keep the min
  static constexpr unsigned kLog = 3;
  static constexpr unsigned kLiveLog = 4;  // 16 of the 32 zmm registers

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
  __attribute__((target("avx512f,avx512vl"))) static void exchange(
      Vec& x, Vec& y, const Mask& keep_min) {
    const __m512i mn = vmin(x, y);
    const __m512i mx = vmax(x, y);
    x = _mm512_mask_blend_epi64(keep_min, mx, mn);
    y = _mm512_mask_blend_epi64(keep_min, mn, mx);
  }
  template <unsigned J>
  __attribute__((target("avx512f,avx512vl"))) static void exchange_lanes(
      Vec& v, const Mask& keep_min) {
    __m512i p;
    partner<J>(p, v);
    // The max everywhere, then the min over it in the keep-min lanes.
    if constexpr (kSigned) {
      v = _mm512_mask_min_epi64(vmax(v, p), keep_min, v, p);
    } else {
      v = _mm512_mask_min_epu64(vmax(v, p), keep_min, v, p);
    }
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
/// 16-node register tiles, pairing lanes below the register width. Every
/// other key, ISA and run shape runs the scalar reference. Integral keys
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
/// nothing, when no vector kernel covers the tile: a scalar or NEON tier,
/// or a tile that is not a whole number of registers. 64-bit addition
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
