// Parity suite for the vectorized replay kernels (sim/simd.hpp): every
// kernel must be bit-identical to the portable scalar reference on every
// width class, at unaligned offsets, and with duplicate keys — under forced
// dispatch to each ISA the binary and CPU support. Runs under TSan and
// ASan+UBSan in CI, so the kernels' unaligned loads, masked gathers and
// chunked parallel writes are sanitizer-checked, not just value-checked.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/block_prefix.hpp"
#include "core/block_sort.hpp"
#include "core/cube_prefix.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/simd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"
#include "topology/recursive_dual_cube.hpp"

// Allocation counter for the steady-state plane-replay proof below (same
// global operator new replacement as sim_test).
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dc::sim {
namespace {

// Restores the process dispatch choice when a test returns or fails.
struct ForcedIsa {
  explicit ForcedIsa(simd::Isa isa) : ok(simd::force_isa(isa)) {}
  ~ForcedIsa() { simd::clear_forced_isa(); }
  bool ok;
};

// The ISAs worth testing on this binary/CPU beyond scalar (possibly none).
std::vector<simd::Isa> vector_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::force_isa(isa)) isas.push_back(isa);
  }
  simd::clear_forced_isa();
  return isas;
}

// ------------------------------------------------ in-place pair merge-split

// A key of each tested type from a 64-bit draw: u64 and i64 keep its bits
// (so draws above 2^63 cross the sign boundary), u32 keeps its top half,
// and std::string is its zero-padded decimal, which orders as the number
// does and owns heap memory.
template <typename Key>
Key pair_key(dc::u64 x) {
  if constexpr (std::is_same_v<Key, std::string>) {
    const std::string digits = std::to_string(x);
    return std::string(20 - digits.size(), '0') + digits;
  } else if constexpr (sizeof(Key) == 4) {
    return static_cast<Key>(x >> 32);
  } else {
    return static_cast<Key>(x);
  }
}

enum class PairInput { kUniform, kHeavyTies, kConstant };
enum class PairShape { kInterleaving, kTouching, kOrdered, kReversed };

// Two sorted blocks (a, b) of `width` keys in the given shape: drawn
// independently (interleaving), or the lower and upper halves of one
// sorted draw of 2·width keys (ordered), the same with b's first key set
// to a's last (touching), or swapped (reversed).
template <typename Key>
std::pair<std::vector<Key>, std::vector<Key>> pair_blocks(std::size_t width,
                                                          PairInput input,
                                                          PairShape shape,
                                                          dc::u64 seed) {
  dc::Rng rng(seed);
  std::vector<Key> keys(2 * width);
  for (Key& k : keys) {
    k = pair_key<Key>(input == PairInput::kUniform     ? rng()
                      : input == PairInput::kHeavyTies ? rng.below(4) << 62
                                                       : dc::u64{1} << 63);
  }
  if (shape != PairShape::kInterleaving) std::sort(keys.begin(), keys.end());
  const auto mid = keys.begin() + static_cast<std::ptrdiff_t>(width);
  std::vector<Key> a(keys.begin(), mid);
  std::vector<Key> b(mid, keys.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  if (shape == PairShape::kTouching) b[0] = a[width - 1];
  if (shape == PairShape::kReversed) std::swap(a, b);
  return {std::move(a), std::move(b)};
}

// The in-place pair (core::detail::merge_split_pair) against two per-node
// merge_split calls, element for element, on every width, input, shape,
// orientation and ISA. Integral 8-byte keys at a power-of-two width of 8
// to 256 must reach the vector pair kernel on every vector ISA; other
// keys and widths run the per-node fallback.
template <typename Key>
void expect_pair_merge_split_parity(const std::vector<simd::Isa>& isas) {
  constexpr std::size_t kPairWidths[] = {1,   2,   4,   8,   16,  32,  64,
                                         128, 256, 512, 1024, 3, 100, 255,
                                         257};
  constexpr bool kVectorKey = std::is_integral_v<Key> && sizeof(Key) == 8;
  dc::u64 seed = 1;
  for (const std::size_t width : kPairWidths) {
    for (const PairInput input : {PairInput::kUniform, PairInput::kHeavyTies,
                                  PairInput::kConstant}) {
      for (const PairShape shape :
           {PairShape::kInterleaving, PairShape::kTouching,
            PairShape::kOrdered, PairShape::kReversed}) {
        const auto [a, b] = pair_blocks<Key>(width, input, shape, ++seed);
        for (const bool keep_min : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << sizeof(Key) << "-byte key, width " << width
                       << ", input " << static_cast<int>(input) << ", shape "
                       << static_cast<int>(shape) << ", keep_min "
                       << keep_min);
          std::vector<Key> want_lo(width);
          std::vector<Key> want_hi(width);
          ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
          core::detail::merge_split(a.data(), b.data(), width, keep_min,
                                    want_lo.data());
          core::detail::merge_split(b.data(), a.data(), width, !keep_min,
                                    want_hi.data());
          for (const simd::Isa isa : isas) {
            ASSERT_TRUE(simd::force_isa(isa));
            auto lo = a;
            auto hi = b;
            std::vector<Key> scratch;
            core::detail::merge_split_pair(lo.data(), hi.data(), width,
                                           keep_min, scratch);
            EXPECT_EQ(lo, want_lo) << simd::isa_name(isa);
            EXPECT_EQ(hi, want_hi) << simd::isa_name(isa);
            if (kVectorKey && isa != simd::Isa::kScalar && width >= 8 &&
                width <= 256 && (width & (width - 1)) == 0) {
              auto min_side = keep_min ? a : b;
              auto max_side = keep_min ? b : a;
              ASSERT_TRUE(simd::merge_split_pair(
                  min_side.data(), max_side.data(), width))
                  << simd::isa_name(isa);
              EXPECT_EQ(min_side, keep_min ? want_lo : want_hi);
              EXPECT_EQ(max_side, keep_min ? want_hi : want_lo);
            }
          }
        }
      }
    }
  }
  simd::clear_forced_isa();
}

TEST(Simd, MergeSplitPairMatchesTwoPerNodeMergeSplits) {
  std::vector<simd::Isa> isas = vector_isas();
  isas.insert(isas.begin(), simd::Isa::kScalar);
  expect_pair_merge_split_parity<dc::u64>(isas);
  expect_pair_merge_split_parity<std::int64_t>(isas);
  expect_pair_merge_split_parity<dc::u32>(isas);
  expect_pair_merge_split_parity<std::string>(isas);
}

TEST(Simd, GatherRowsMatchesScalarAtUnalignedOffsets) {
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this binary/CPU";
  constexpr std::size_t kRows = 103;  // not a multiple of any lane count
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  dc::Rng rng(42);
  std::vector<std::uint64_t> from(kRows);
  for (std::size_t v = 0; v < kRows; ++v) {
    from[v] = (rng() % 3 == 0) ? kNone : rng() % kRows;
  }
  const std::vector<std::uint64_t> src = [&] {
    std::vector<std::uint64_t> s(kRows);
    for (auto& x : s) x = rng();
    return s;
  }();
  // Chunk edges [lo, hi) exercising unaligned starts, short tails, and the
  // full row range at once.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, kRows}, {3, 98}, {1, 5}, {50, 53}, {97, kRows}};
  for (const simd::Isa isa : isas) {
    for (const auto& [lo, hi] : ranges) {
      std::vector<std::uint64_t> plane_ref(kRows, 7), stamp_ref(kRows, 1);
      std::vector<std::uint64_t> plane_got(kRows, 7), stamp_got(kRows, 1);
      ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
      simd::gather_rows(plane_ref.data(), stamp_ref.data(), 5, from.data(),
                        kNone, lo, hi, 1, src.data(), 1);
      ASSERT_TRUE(simd::force_isa(isa));
      simd::gather_rows(plane_got.data(), stamp_got.data(), 5, from.data(),
                        kNone, lo, hi, 1, src.data(), 1);
      simd::clear_forced_isa();
      EXPECT_EQ(plane_got, plane_ref) << "lo=" << lo << " hi=" << hi;
      EXPECT_EQ(stamp_got, stamp_ref) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(Simd, AddRowsMatchesScalarIncludingTails) {
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this binary/CPU";
  dc::Rng rng(7);
  for (const simd::Isa isa : isas) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{31}, std::size_t{1000}}) {
      std::vector<std::uint64_t> prev(n), ref(n), got(n);
      for (std::size_t i = 0; i < n; ++i) {
        prev[i] = rng();
        ref[i] = got[i] = rng();
      }
      ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
      simd::add_rows_u64(ref.data(), prev.data(), n);
      ASSERT_TRUE(simd::force_isa(isa));
      simd::add_rows_u64(got.data(), prev.data(), n);
      simd::clear_forced_isa();
      EXPECT_EQ(got, ref) << "n=" << n;
    }
  }
}

// The u64-sum Cube_prefix kernel on every tile shape a replayed cluster
// pass hands it, for D_1 .. D_11 (w = 0 .. 10 steps): a class-0 block of
// whole clusters (unit 1), a class-1 strip or narrow class-1 half (unit =
// its column count), and a tile of two blocks. Full-range sums wrap.
// Every tier writes the reference butterfly's bytes, or declines a tile
// that is not a whole number of its registers and leaves it untouched.
TEST(Simd, CubePrefixStepsMatchButterflyOnEveryTileShape) {
  std::vector<simd::Isa> isas = vector_isas();
  isas.insert(isas.begin(), simd::Isa::kScalar);
  const core::Plus<std::uint64_t> op;
  dc::Rng rng(23);
  for (unsigned w = 0; w <= 10; ++w) {
    const std::uint64_t side = std::uint64_t{1} << w;
    const std::uint64_t cols =
        std::min(side, core::detail::kPrefixStripClusters);
    const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
        {side * cols, 1}, {side * cols, cols}, {2 * side * cols, 1}};
    for (const auto& [len, unit] : shapes) {
      for (const bool inclusive : {true, false}) {
        std::vector<std::uint64_t> t0(len), s0(len, 0);
        for (auto& x : t0) x = rng();
        if (inclusive) s0 = t0;
        auto t_ref = t0;
        auto s_ref = s0;
        for (unsigned i = 0; i < w; ++i) {
          core::detail::cube_prefix_butterfly(op, t_ref.data(), s_ref.data(),
                                              0, len, unit << i);
        }
        for (const simd::Isa isa : isas) {
          SCOPED_TRACE(testing::Message()
                       << "w=" << w << " len=" << len << " unit=" << unit
                       << " inclusive=" << inclusive
                       << " isa=" << simd::isa_name(isa));
          auto t = t0;
          auto s = s0;
          ASSERT_TRUE(simd::force_isa(isa));
          const bool covered =
              simd::cube_prefix_steps(t.data(), s.data(), len, unit, w);
          simd::clear_forced_isa();
          const std::uint64_t lanes = isa == simd::Isa::kAvx512 ? 8
                                      : isa == simd::Isa::kAvx2 ? 4
                                                                : 0;
          EXPECT_EQ(covered, lanes != 0 && len % lanes == 0);
          EXPECT_EQ(t, covered ? t_ref : t0);
          EXPECT_EQ(s, covered ? s_ref : s0);
        }
      }
    }
  }
}

TEST(Simd, ForceIsaRefusesUnsupportedAndKeepsCurrentChoice) {
  const simd::Isa before = simd::active_isa();
  // A value past the last tier names none and is refused on every host;
  // off x86-64, so are both x86-64 tiers.
  EXPECT_FALSE(simd::force_isa(static_cast<simd::Isa>(3)));
#if !(defined(__x86_64__) || defined(_M_X64))
  EXPECT_FALSE(simd::force_isa(simd::Isa::kAvx2));
  EXPECT_FALSE(simd::force_isa(simd::Isa::kAvx512));
#endif
  EXPECT_EQ(simd::active_isa(), before);
  EXPECT_TRUE(simd::force_isa(simd::Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  simd::clear_forced_isa();
  EXPECT_EQ(simd::active_isa(), before);
  // A better tier must not shadow a lower one: on an AVX-512 CPU the AVX2
  // tier stays forceable and is the one that then runs.
  if (simd::supported(simd::Isa::kAvx512)) {
    EXPECT_EQ(simd::detect_best(), simd::Isa::kAvx512);
    EXPECT_TRUE(simd::force_isa(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx2);
    EXPECT_TRUE(simd::force_isa(simd::Isa::kAvx512));
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx512);
    simd::clear_forced_isa();
  } else {
    EXPECT_FALSE(simd::force_isa(simd::Isa::kAvx512));
    EXPECT_EQ(simd::active_isa(), before);
  }
}

// DC_SIMD picks the tier it names wherever the CPU has it, whatever better
// tier the CPU also has; `auto`, no DC_SIMD and any value that names no
// tier pick the best. CI runs this binary under DC_SIMD=avx2 and scalar,
// and under a value that names no tier, as well, and reads the tier each
// run took from the line this test prints.
TEST(Simd, EnvChoiceRunsTheNamedTierWhereSupported) {
  const char* env = std::getenv("DC_SIMD");
  const std::string choice = env ? env : "auto";
  simd::clear_forced_isa();
  std::cout << "DC_SIMD=" << choice << " runs "
            << simd::isa_name(simd::active_isa()) << " (best on this CPU: "
            << simd::isa_name(simd::detect_best()) << ")\n";
  if (choice == "scalar") {
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  } else if (choice == "avx2") {
    EXPECT_EQ(simd::active_isa(), simd::supported(simd::Isa::kAvx2)
                                      ? simd::Isa::kAvx2
                                      : simd::Isa::kScalar);
  } else {
    EXPECT_EQ(simd::active_isa(), simd::detect_best());
  }
}

// Runs block_sort on `input` under the scalar ISA and under each vector
// ISA: the keys must come out sorted, the same on every ISA, with the same
// Counters.
template <typename Key>
void expect_block_sort_isa_parity(const std::vector<Key>& input,
                                  std::size_t block) {
  const net::RecursiveDualCube r(2);
  auto want = input;
  std::sort(want.begin(), want.end());
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  Machine ms(r);
  auto scalar_keys = input;
  core::block_sort(ms, r, scalar_keys, block);
  simd::clear_forced_isa();
  EXPECT_EQ(scalar_keys, want);
  for (const simd::Isa isa : vector_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    Machine mv(r);
    auto vector_keys = input;
    core::block_sort(mv, r, vector_keys, block);
    simd::clear_forced_isa();
    EXPECT_EQ(vector_keys, scalar_keys) << simd::isa_name(isa);
    EXPECT_EQ(mv.counters(), ms.counters()) << simd::isa_name(isa);
  }
}

// End-to-end: block_sort's local sort runs the bitonic step kernel on
// integral keys at power-of-two widths and std::sort at other widths and
// on other keys, and its merge-splits run the 8-byte pair kernel or the
// scalar select chains. Every ISA must sort to the same bytes with the
// same Counters, for signed and unsigned 8-byte keys, 4-byte keys and
// strings, with and without ties.
TEST(Simd, BlockSortEndToEndParityAcrossIsas) {
  const std::size_t nodes = net::RecursiveDualCube(2).node_count();
  // The kernel's widths, then std::sort's.
  for (const std::size_t block :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}, std::size_t{64},
        std::size_t{256}, std::size_t{3}, std::size_t{100}}) {
    for (const auto dist :
         {dc::KeyDistribution::kUniform, dc::KeyDistribution::kFewDistinct}) {
      SCOPED_TRACE("block " + std::to_string(block) + " " + to_string(dist));
      const auto raw = dc::generate_keys(dist, nodes * block, block);
      std::vector<std::int64_t> signed_keys(raw.size());
      std::vector<dc::u32> narrow_keys(raw.size());
      std::vector<std::string> string_keys(raw.size());
      for (std::size_t i = 0; i < raw.size(); ++i) {
        signed_keys[i] = static_cast<std::int64_t>(raw[i]);
        narrow_keys[i] = static_cast<dc::u32>(raw[i]);
        string_keys[i] = std::to_string(raw[i]);
      }
      expect_block_sort_isa_parity(raw, block);
      expect_block_sort_isa_parity(signed_keys, block);
      expect_block_sort_isa_parity(narrow_keys, block);
      expect_block_sort_isa_parity(string_keys, block);
    }
  }
}

// End-to-end: block prefix (offset-major rows + vector row adds) against
// both the scalar ISA and a directly computed inclusive scan.
TEST(Simd, BlockPrefixEndToEndParityAcrossIsas) {
  const net::DualCube d(2);
  const core::Plus<dc::u64> plus;
  const std::size_t block = 24;
  dc::Rng rng(3);
  std::vector<dc::u64> data(d.node_count() * block);
  for (auto& x : data) x = rng() % 1000;
  std::vector<dc::u64> expect(data.size());
  std::partial_sum(data.begin(), data.end(), expect.begin());

  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  Machine ms(d);
  EXPECT_EQ(core::block_prefix(ms, d, plus, data, block), expect);
  simd::clear_forced_isa();
  for (const simd::Isa isa : vector_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    Machine mv(d);
    EXPECT_EQ(core::block_prefix(mv, d, plus, data, block), expect)
        << simd::isa_name(isa);
    EXPECT_EQ(mv.counters(), ms.counters());
    simd::clear_forced_isa();
  }
}

// The plane-source replay path must deliver exactly what the callback path
// delivers — and allocate nothing in steady state.
TEST(Simd, PlaneSourceReplayMatchesCallbackAndDoesNotAllocate) {
  const net::Hypercube q(6);
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::uint64_t> plane(q.node_count() * width);
    for (std::size_t i = 0; i < plane.size(); ++i) {
      plane[i] = i * 2654435761ull;
    }
    ObliviousSection section(m, "simd_test_plane_replay", {width});
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto warm = section.exchange_blocks<std::uint64_t>(
          width, [&](net::NodeId u) { return q.neighbor(u, i); },
          PlaneSrc<std::uint64_t>{plane.data(), width});
    }
    section.commit();
    const auto schedule = ScheduleCache::instance().find(section.key());
    ASSERT_NE(schedule, nullptr);
    // Warm the pool to its high-water shape — the counted loop keeps two
    // inboxes alive at once, so warm with two concurrently live planes.
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto warm_a = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), width,
          PlaneSrc<std::uint64_t>{plane.data(), width});
      auto warm_b = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), width,
          PlaneSrc<std::uint64_t>{plane.data(), width});
    }
    const std::uint64_t before = g_allocation_count.load();
    for (unsigned i = 0; i < q.dimensions(); ++i) {
      auto from_plane = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), width,
          PlaneSrc<std::uint64_t>{plane.data(), width});
      auto from_callback = m.comm_cycle_scheduled_blocks<std::uint64_t>(
          schedule->cycle(i), width,
          [&](net::NodeId u, std::uint64_t* dst) {
            for (std::size_t k = 0; k < width; ++k)
              dst[k] = plane[u * width + k];
          });
      for (net::NodeId u = 0; u < q.node_count(); ++u) {
        ASSERT_EQ(from_plane.has(u), from_callback.has(u));
        for (std::size_t k = 0; k < width; ++k) {
          ASSERT_EQ(from_plane.block(u)[k], from_callback.block(u)[k]);
        }
      }
    }
    EXPECT_EQ(g_allocation_count.load(), before)
        << "steady-state plane replay allocated at width " << width;
  }
}

// The affine parallel loop must cover every index exactly once regardless
// of band layout, including on a multi-worker pool (this machine's CI runs
// are single-core, so force a pool).
TEST(Simd, ParallelForAffineCoversRangeOnMultiWorkerPool) {
  ThreadPool pool(3);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<std::uint32_t>> hits(kCount);
  for (auto& h : hits) h.store(0);
  parallel_for_affine(
      0, kCount, sizeof(std::uint64_t),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      /*grain=*/64, &pool);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

// ------------------------------------------------ bitonic step kernel

// Keys for the bitonic kernel: the type's extremes and the values around
// zero and the sign bit, then random fill drawn from a narrow range
// (plenty of duplicates) and from the full width.
template <typename Key>
std::vector<Key> bitonic_keys(std::size_t n, dc::u64 seed) {
  using U = std::make_unsigned_t<Key>;
  const U sign = U{1} << (8 * sizeof(Key) - 1);
  const Key specials[] = {Key{0},
                          Key{1},
                          static_cast<Key>(U(~U{0})),  // -1 or the max
                          std::numeric_limits<Key>::min(),
                          std::numeric_limits<Key>::max(),
                          static_cast<Key>(sign),  // 2^63 (2^31) or the min
                          static_cast<Key>(U(sign - 1)),
                          static_cast<Key>(U(sign + 1))};
  dc::Rng rng(seed);
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = i < std::size(specials) ? specials[i]
              : i % 2 == 0            ? static_cast<Key>(U(rng.below(7)))
                                      : static_cast<Key>(U(rng()));
  }
  for (std::size_t i = n; i-- > 1;) std::swap(keys[i], keys[rng.below(i + 1)]);
  return keys;
}

// The reference kernel runs Algorithm 3's rule: on D_1 .. D_6, the whole
// network through simd::scalar::bitonic_steps must equal a per-node
// double-buffered compare-exchange under core::detail::bitonic_keep_min,
// and sort.
TEST(Simd, BitonicReferenceFollowsTheNetworkRule) {
  for (unsigned n = 1; n <= 6; ++n) {
    const std::size_t nodes = std::size_t{1} << (2 * n - 1);
    for (const bool descending : {false, true}) {
      auto kernel = bitonic_keys<std::int64_t>(nodes, n);
      auto naive = kernel;
      auto next = naive;
      for (unsigned k = 1; k <= n; ++k) {
        for (const bool half_merge : {true, false}) {
          const unsigned t = half_merge ? 2 * k - 2 : 2 * k - 1;
          const auto pass =
              core::detail::pass_direction(k, n, half_merge, descending);
          for (unsigned j = t; j-- > 0;) {
            simd::scalar::bitonic_steps(kernel.data(), j, j, 0, nodes / 2,
                                        pass.dir_mask, pass.descending);
            for (std::size_t u = 0; u < nodes; ++u) {
              const auto other = naive[u ^ (std::size_t{1} << j)];
              next[u] = core::detail::bitonic_keep_min(u, j, k, n, half_merge,
                                                       descending)
                            ? std::min(naive[u], other)
                            : std::max(naive[u], other);
            }
            naive.swap(next);
            ASSERT_EQ(kernel, naive) << "D_" << n << " k=" << k << " j=" << j;
          }
        }
      }
      auto want = kernel;
      std::sort(want.begin(), want.end());
      if (descending) std::reverse(want.begin(), want.end());
      EXPECT_EQ(kernel, want) << "D_" << n;
    }
  }
}

// Runs steps top .. bottom over every base of the run, cut into pieces at
// arbitrary bases (none of them a multiple of a register or tile), as a
// pool's chunks would run them.
template <typename Key>
void run_in_pieces(std::vector<Key>& keys, unsigned top, unsigned bottom,
                   const core::detail::PassDirection& pass) {
  const dc::u64 bases = keys.size() >> (top - bottom + 1);
  std::vector<dc::u64> cuts = {0, bases / 3, 2 * bases / 3 + 1, bases - 1,
                               bases};
  for (dc::u64& c : cuts) c = std::min(c, bases);
  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    if (cuts[c] >= cuts[c + 1]) continue;
    simd::bitonic_steps(keys.data(), top, bottom, cuts[c], cuts[c + 1],
                        pass.dir_mask, pass.descending);
  }
}

// Every vector ISA against the scalar reference, on D_1 .. D_8, both
// directions. At every pass of the network, every run a caller can cut
// the pass into — each run top .. bottom of up to three steps, and each
// tile run top .. 0 with top <= 3 — runs in pieces on the network's live
// state, scalar and vector, and must leave the same bytes.
template <typename Key>
void expect_bitonic_parity(simd::Isa isa) {
  for (unsigned n = 1; n <= 8; ++n) {
    const std::size_t nodes = std::size_t{1} << (2 * n - 1);
    for (const bool descending : {false, true}) {
      auto state = bitonic_keys<Key>(nodes, 60 + n);
      for (unsigned k = 1; k <= n; ++k) {
        for (const bool half_merge : {true, false}) {
          const unsigned t = half_merge ? 2 * k - 2 : 2 * k - 1;
          const auto pass =
              core::detail::pass_direction(k, n, half_merge, descending);
          for (unsigned top = 0; top < t; ++top) {
            for (unsigned bottom = top + 1; bottom-- > 0;) {
              if (top - bottom > 2 && !(bottom == 0 && top <= 3)) continue;
              auto want = state;
              ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
              run_in_pieces(want, top, bottom, pass);
              auto got = state;
              ASSERT_TRUE(simd::force_isa(isa));
              run_in_pieces(got, top, bottom, pass);
              simd::clear_forced_isa();
              ASSERT_EQ(got, want)
                  << "Key=" << sizeof(Key) << "B signed="
                  << std::is_signed_v<Key> << " D_" << n << " k=" << k
                  << (half_merge ? " half" : " full") << " steps " << top
                  << ".." << bottom << " descending=" << descending
                  << " isa=" << simd::isa_name(isa);
            }
          }
          if (t > 0) {
            simd::scalar::bitonic_steps(state.data(), t - 1, 0, 0,
                                        nodes >> t, pass.dir_mask,
                                        pass.descending);
          }
        }
      }
      EXPECT_TRUE(descending ? std::is_sorted(state.rbegin(), state.rend())
                             : std::is_sorted(state.begin(), state.end()))
          << "D_" << n;
    }
  }
}

TEST(Simd, BitonicStepsMatchScalarEveryOrderPassAndRun) {
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this binary/CPU";
  for (const simd::Isa isa : isas) {
    expect_bitonic_parity<dc::u64>(isa);
    expect_bitonic_parity<std::int64_t>(isa);
    expect_bitonic_parity<std::uint32_t>(isa);
    expect_bitonic_parity<std::int32_t>(isa);
  }
}

// The reference's runs follow the base contract: on D_1 .. D_7, every run
// top .. bottom of every pass over all of its bases leaves the bytes that
// its single steps top, top-1, ..., bottom leave, each over all pairs (the
// single steps follow the network rule, as checked above).
TEST(Simd, BitonicReferenceRunEqualsItsStepsInOrder) {
  for (unsigned n = 1; n <= 7; ++n) {
    const std::size_t nodes = std::size_t{1} << (2 * n - 1);
    auto state = bitonic_keys<dc::u64>(nodes, 90 + n);
    for (unsigned k = 1; k <= n; ++k) {
      for (const bool half_merge : {true, false}) {
        const unsigned t = half_merge ? 2 * k - 2 : 2 * k - 1;
        const auto pass = core::detail::pass_direction(k, n, half_merge, false);
        for (unsigned top = 0; top < t; ++top) {
          for (unsigned bottom = 0; bottom < top; ++bottom) {
            auto run = state;
            simd::scalar::bitonic_steps(run.data(), top, bottom, 0,
                                        nodes >> (top - bottom + 1),
                                        pass.dir_mask, pass.descending);
            auto steps = state;
            for (unsigned j = top + 1; j-- > bottom;) {
              simd::scalar::bitonic_steps(steps.data(), j, j, 0, nodes / 2,
                                          pass.dir_mask, pass.descending);
            }
            ASSERT_EQ(run, steps) << "D_" << n << " k=" << k << " steps "
                                  << top << ".." << bottom;
          }
        }
        if (t > 0) {
          simd::bitonic_pass(state.data(), nodes, t, pass.dir_mask,
                             pass.descending);
        }
      }
    }
    EXPECT_TRUE(std::is_sorted(state.begin(), state.end())) << "D_" << n;
  }
}

// The tile-sort entry against the reference: passes 1 .. b for b = 1 .. 4,
// the last pass directed by every bit it can take (b .. 6) or by the caller
// alone, both final directions, cut into pieces at bases that are not
// tile-aligned (as a pool's chunks would run them), must leave the
// reference's bytes — and the reference sorts each 2^b-node group the way
// its rule asks.
template <typename Key>
void expect_tile_sort_parity(simd::Isa isa) {
  constexpr std::size_t kNodes = 1024;
  for (unsigned b = 1; b <= 4; ++b) {
    const dc::u64 bases = kNodes >> b;
    std::vector<dc::u64> masks = {0};
    for (unsigned bit = b; bit <= 6; ++bit) masks.push_back(dc::u64{1} << bit);
    for (const dc::u64 dir_mask : masks) {
      for (const bool descending : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "Key=" << sizeof(Key) << "B signed="
                     << std::is_signed_v<Key> << " b=" << b << " dir_mask="
                     << dir_mask << " descending=" << descending
                     << " isa=" << simd::isa_name(isa));
        const auto input = bitonic_keys<Key>(kNodes, 8 * b + dir_mask);
        auto want = input;
        simd::scalar::bitonic_passes(want.data(), 1, b, 0, bases, dir_mask,
                                     descending);
        for (dc::u64 g = 0; g < bases; ++g) {
          const auto first = want.begin() + static_cast<std::ptrdiff_t>(g << b);
          const auto last = first + (std::ptrdiff_t{1} << b);
          const bool down = (((g << b) & dir_mask) != 0) != descending;
          ASSERT_TRUE(down ? std::is_sorted(first, last, std::greater<>())
                           : std::is_sorted(first, last))
              << "group " << g;
        }
        auto got = input;
        const dc::u64 cuts[] = {0, 1, bases / 3, 2 * bases / 3 + 1,
                                bases - 1, bases};
        ASSERT_TRUE(simd::force_isa(isa));
        for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
          simd::bitonic_tile_sort(got.data(), b, cuts[c], cuts[c + 1],
                                  dir_mask, descending);
        }
        simd::clear_forced_isa();
        ASSERT_EQ(got, want);
      }
    }
  }
}

TEST(Simd, TileSortMatchesTheReferenceEveryPassCountAndDirection) {
  std::vector<simd::Isa> isas = vector_isas();
  isas.insert(isas.begin(), simd::Isa::kScalar);
  for (const simd::Isa isa : isas) {
    expect_tile_sort_parity<dc::u64>(isa);
    expect_tile_sort_parity<std::int64_t>(isa);
  }
}

// The 0-1 principle on one tile: the 16-node tile sort (passes 1 .. 4)
// sorts every one of the 2^16 inputs of zeros and ones, both directions,
// on every tier.
TEST(Simd, TileSortSortsEveryZeroOneTile) {
  constexpr std::size_t kTiles = std::size_t{1} << 16;
  std::vector<dc::u64> inputs(16 * kTiles);
  for (std::size_t x = 0; x < kTiles; ++x) {
    for (unsigned i = 0; i < 16; ++i) inputs[16 * x + i] = (x >> i) & 1;
  }
  std::vector<simd::Isa> isas = vector_isas();
  isas.insert(isas.begin(), simd::Isa::kScalar);
  for (const simd::Isa isa : isas) {
    for (const bool descending : {false, true}) {
      auto keys = inputs;
      ASSERT_TRUE(simd::force_isa(isa));
      simd::bitonic_tile_sort(keys.data(), 4, 0, kTiles, 0, descending);
      simd::clear_forced_isa();
      for (std::size_t x = 0; x < kTiles; ++x) {
        const unsigned ones = static_cast<unsigned>(std::popcount(x));
        for (unsigned i = 0; i < 16; ++i) {
          const bool one = descending ? i < ones : i >= 16 - ones;
          ASSERT_EQ(keys[16 * x + i], dc::u64{one})
              << simd::isa_name(isa) << " descending=" << descending
              << " input " << x;
        }
      }
    }
  }
}

// A replayed dual_sort, which runs passes 1 .. 4 as one tile sort and
// books the other steps around empty sweeps, must match its record run on
// RD_1 .. RD_7 — sorted keys and Counters with ops — on a pool of one and
// of four workers, at the machine's grain and at grain 1 (every sweep
// split over the workers). Its trace reads like one fused sweep per
// dimension step, as schedule_test pins for the generic combine: the
// step's 1 or 3 fused cycles, then its compute step.
TEST(Simd, ReplayedDualSortMatchesItsRecordRunOnOneAndFourWorkers) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    for (const std::size_t grain : {std::size_t{0}, std::size_t{1}}) {
      for (unsigned n = 1; n <= 7; ++n) {
        SCOPED_TRACE(testing::Message() << "RD_" << n << " workers="
                                        << workers << " grain=" << grain);
        const net::RecursiveDualCube r(n);
        const auto input = bitonic_keys<dc::u64>(r.node_count(), 50 + n);
        ScheduleCache::instance().clear();
        const auto sorted = [&] {
          Machine m(r);
          m.set_thread_pool(&pool);
          if (grain != 0) m.set_parallel_grain(grain);
          m.set_schedule_path(SchedulePath::kCompiled);
          m.enable_trace();
          auto keys = input;
          core::dual_sort(m, r, keys);
          std::vector<std::pair<std::string, char>> events;
          for (const TraceEvent& e : m.trace()->merged())
            if (e.track == m.trace_track()) events.emplace_back(e.name, e.ph);
          return std::make_tuple(keys, m.counters(), m.replayed_cycles(),
                                 events);
        };
        const auto [want, want_counters, recorded, record_events] = sorted();
        const auto [got, counters, replayed, events] = sorted();
        EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
        EXPECT_EQ(got, want);
        EXPECT_EQ(counters, want_counters);
        EXPECT_EQ(recorded, 0u);
        EXPECT_EQ(replayed, counters.comm_cycles);
        std::vector<std::pair<std::string, char>> pinned{
            {"replay:dual_bitonic_network", 'B'}, {"schedule_cache_hit", 'i'}};
        for (unsigned t = 1; t < 2 * n; ++t) {
          for (unsigned j = t; j-- > 0;) {
            for (std::size_t c = 0; c < core::detail::relay_cycles(j); ++c) {
              pinned.insert(pinned.end(), {{"comm_cycle_fused", 'B'},
                                           {"comm_cycle_fused", 'E'}});
            }
            pinned.emplace_back("compute_step", 'i');
          }
        }
        pinned.emplace_back("replay:dual_bitonic_network", 'E');
        EXPECT_EQ(events, pinned);
      }
    }
  }
}

// End to end on every tier: a replayed dual_sort on RD_1 .. RD_7, both
// directions, signed and unsigned 8-byte keys, sorts to the same bytes
// with byte-identical Counters and trace JSON as under the scalar
// reference.
TEST(Simd, DualSortEndToEndParityAcrossIsas) {
  const auto isas = vector_isas();
  if (isas.empty()) GTEST_SKIP() << "no vector ISA on this binary/CPU";
  for (unsigned n = 1; n <= 7; ++n) {
    const net::RecursiveDualCube r(n);
    const auto raw = bitonic_keys<dc::u64>(r.node_count(), 30 + n);
    std::vector<std::int64_t> signed_keys(raw.begin(), raw.end());
    for (const bool descending : {false, true}) {
      SCOPED_TRACE(testing::Message() << "RD_" << n
                                      << " descending=" << descending);
      const auto sorted = [&](auto keys, simd::Isa isa) {
        EXPECT_TRUE(simd::force_isa(isa));
        Machine m(r);
        m.set_schedule_path(SchedulePath::kCompiled);
        m.enable_trace();
        core::dual_sort(m, r, keys, descending);
        simd::clear_forced_isa();
        EXPECT_EQ(m.replayed_cycles(), m.counters().comm_cycles);
        return std::make_tuple(keys, m.counters(), m.trace()->json());
      };
      {
        Machine warm(r);  // records the schedule every run below replays
        auto keys = raw;
        core::dual_sort(warm, r, keys, descending);
      }
      const auto want = sorted(raw, simd::Isa::kScalar);
      const auto want_signed = sorted(signed_keys, simd::Isa::kScalar);
      for (const simd::Isa isa : isas) {
        EXPECT_EQ(sorted(raw, isa), want) << simd::isa_name(isa);
        EXPECT_EQ(sorted(signed_keys, isa), want_signed)
            << simd::isa_name(isa);
      }
    }
  }
}

}  // namespace
}  // namespace dc::sim
