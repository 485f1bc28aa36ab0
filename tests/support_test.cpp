// Unit tests for src/support: bit helpers, RNG, thread pool, tables, CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "support/bits.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace dc {
namespace {

TEST(Bits, Pow2) {
  EXPECT_EQ(bits::pow2(0), 1u);
  EXPECT_EQ(bits::pow2(1), 2u);
  EXPECT_EQ(bits::pow2(10), 1024u);
  EXPECT_EQ(bits::pow2(63), u64{1} << 63);
}

TEST(Bits, GetSetFlip) {
  EXPECT_EQ(bits::get(0b1010, 1), 1u);
  EXPECT_EQ(bits::get(0b1010, 0), 0u);
  EXPECT_EQ(bits::flip(0b1010, 0), 0b1011u);
  EXPECT_EQ(bits::flip(0b1010, 1), 0b1000u);
  EXPECT_EQ(bits::set(0b1010, 0, 1), 0b1011u);
  EXPECT_EQ(bits::set(0b1010, 1, 0), 0b1000u);
  EXPECT_EQ(bits::set(0b1010, 1, 1), 0b1010u);
}

TEST(Bits, Field) {
  EXPECT_EQ(bits::field(0b110101, 0, 3), 0b101u);
  EXPECT_EQ(bits::field(0b110101, 3, 3), 0b110u);
  EXPECT_EQ(bits::field(0b110101, 2, 0), 0u);
  EXPECT_EQ(bits::with_field(0b110101, 0, 3, 0b010), 0b110010u);
  EXPECT_EQ(bits::with_field(0, 3, 3, 0b111), 0b111000u);
}

TEST(Bits, HammingPopcount) {
  EXPECT_EQ(bits::popcount(0), 0u);
  EXPECT_EQ(bits::popcount(0b1011), 3u);
  EXPECT_EQ(bits::hamming(0b1011, 0b1011), 0u);
  EXPECT_EQ(bits::hamming(0b1011, 0b0010), 2u);
  EXPECT_EQ(bits::hamming(0, ~u64{0}), 64u);
}

TEST(Bits, Log2AndLowestSet) {
  EXPECT_EQ(bits::log2_floor(1), 0u);
  EXPECT_EQ(bits::log2_floor(2), 1u);
  EXPECT_EQ(bits::log2_floor(3), 1u);
  EXPECT_EQ(bits::log2_floor(1024), 10u);
  EXPECT_EQ(bits::lowest_set(0b1000), 3u);
  EXPECT_EQ(bits::lowest_set(0b1010), 1u);
  EXPECT_TRUE(bits::is_pow2(64));
  EXPECT_FALSE(bits::is_pow2(65));
  EXPECT_FALSE(bits::is_pow2(0));
}

TEST(Bits, Reverse) {
  EXPECT_EQ(bits::reverse(0b110, 3), 0b011u);
  EXPECT_EQ(bits::reverse(0b1, 4), 0b1000u);
  EXPECT_EQ(bits::reverse(0b1011, 4), 0b1101u);
}

TEST(Bits, InterleaveRoundTrip) {
  for (u64 even = 0; even < 16; ++even) {
    for (u64 odd = 0; odd < 16; ++odd) {
      const u64 mixed = bits::interleave(even, odd, 4);
      EXPECT_EQ(bits::even_bits(mixed, 4), even);
      EXPECT_EQ(bits::odd_bits(mixed, 4), odd);
    }
  }
}

TEST(Bits, ToBinary) {
  EXPECT_EQ(bits::to_binary(0b101, 3), "101");
  EXPECT_EQ(bits::to_binary(0b101, 5), "00101");
  EXPECT_EQ(bits::to_binary(0, 4), "0000");
}

TEST(Rng, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differ = 0;
  for (int i = 0; i < 16; ++i)
    if (a() != b()) ++differ;
  EXPECT_GT(differ, 0);
}

TEST(Rng, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<u64> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.range(9, 9), 9);
}

TEST(Rng, UnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.unit();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BelowRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), CheckError);
}

TEST(KeyDistributions, ShapesHold) {
  const std::size_t n = 256;
  const auto sorted = generate_keys(KeyDistribution::kSorted, n, 1);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));

  const auto reverse = generate_keys(KeyDistribution::kReverse, n, 1);
  EXPECT_TRUE(std::is_sorted(reverse.rbegin(), reverse.rend()));

  const auto constant = generate_keys(KeyDistribution::kConstant, n, 1);
  EXPECT_EQ(std::set<u64>(constant.begin(), constant.end()).size(), 1u);

  const auto few = generate_keys(KeyDistribution::kFewDistinct, n, 1);
  EXPECT_LE(std::set<u64>(few.begin(), few.end()).size(), 8u);

  const auto organ = generate_keys(KeyDistribution::kOrganPipe, n, 1);
  const auto peak = std::max_element(organ.begin(), organ.end());
  EXPECT_TRUE(std::is_sorted(organ.begin(), peak));
  EXPECT_TRUE(std::is_sorted(peak, organ.end(), std::greater<>()));
}

TEST(KeyDistributions, DeterministicPerSeed) {
  const auto a = generate_keys(KeyDistribution::kUniform, 128, 42);
  const auto b = generate_keys(KeyDistribution::kUniform, 128, 42);
  const auto c = generate_keys(KeyDistribution::kUniform, 128, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(KeyDistributions, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto d : all_key_distributions()) names.insert(to_string(d));
  EXPECT_EQ(names.size(), all_key_distributions().size());
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  constexpr std::size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool touched = false;
  parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 10'000,
                   [](std::size_t i) {
                     if (i == 4321) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ThreadPool, WorkerSlotIsZeroForNonWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_slot(), 0u);
  ThreadPool other(2);
  // A worker of one pool is not a worker of another. The caller's chunk
  // waits (up to a deadline) until a worker has run one, so the job
  // really reaches a worker.
  std::atomic<std::size_t> worker_chunks{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  parallel_for_chunked(
      0, 12,
      [&](std::size_t, std::size_t) {
        if (pool.worker_slot() == 0) {
          while (worker_chunks.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
          return;
        }
        EXPECT_LE(pool.worker_slot(), pool.size());
        EXPECT_EQ(other.worker_slot(), 0u);
        worker_chunks.fetch_add(1);
      },
      /*grain=*/1, &pool);
  EXPECT_GT(worker_chunks.load(), 0u);
}

// A worker that woke for one job may enter it only after the caller has
// returned and begun publishing the next job; it must not claim the next
// job's tickets against half-written job state. Alternating chunked and
// affine jobs, each over its own stack array, exposes that straggler as
// miscoverage, a stalled job, or (under TSan) a data race. The jobs run on
// a driver thread under a deadline, so a stall fails instead of hanging.
TEST(ThreadPool, BackToBackChunkedAndAffineJobsStayIsolated) {
  constexpr std::size_t kN = 1 << 15;
  constexpr std::uint64_t kMaxJobs = 300'000;
  constexpr auto kBudget = std::chrono::seconds(5);
  std::mutex mtx;
  std::condition_variable cv;
  bool finished = false;
  std::uint64_t jobs = 0;
  std::uint64_t miscovered = 0;
  std::thread driver([&] {
    ThreadPool pool(3);
    const auto stop = std::chrono::steady_clock::now() + kBudget;
    std::uint64_t done = 0;
    std::uint64_t bad = 0;
    while (done < kMaxJobs && std::chrono::steady_clock::now() < stop) {
      std::array<std::uint8_t, kN> hits{};
      const auto body = [&hits](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      };
      if (done % 2 == 0) {
        parallel_for_chunked(0, kN, body, /*grain=*/1, &pool);
      } else {
        parallel_for_affine(0, kN, sizeof(std::uint8_t), body, /*grain=*/1,
                            &pool);
      }
      if (!std::all_of(hits.begin(), hits.end(),
                       [](std::uint8_t h) { return h == 1; })) {
        ++bad;
      }
      ++done;
    }
    std::scoped_lock lock(mtx);
    finished = true;
    jobs = done;
    miscovered = bad;
    cv.notify_all();
  });
  {
    std::unique_lock lock(mtx);
    if (!cv.wait_for(lock, kBudget + std::chrono::seconds(60),
                     [&] { return finished; })) {
      // The driver is stuck inside the pool and can never be joined: fail
      // the binary now rather than hang the suite.
      std::fprintf(stderr, "alternating chunked/affine pool jobs stalled\n");
      std::_Exit(1);
    }
  }
  driver.join();
  EXPECT_GT(jobs, 0u);
  EXPECT_EQ(miscovered, 0u) << "of " << jobs << " jobs";
}

TEST(ParallelFor, ChunkedCoversRangeAndReportsWorkerSlots) {
  ThreadPool pool(4);
  constexpr std::size_t n = 1 << 14;
  std::vector<std::atomic<int>> hits(n);
  std::mutex mtx;
  std::set<std::size_t> slots;
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        {
          std::scoped_lock lock(mtx);
          slots.insert(pool.worker_slot());
        }
        for (std::size_t i = lo; i < hi; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      },
      /*grain=*/1, &pool);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  ASSERT_FALSE(slots.empty());
  for (const std::size_t s : slots) EXPECT_LE(s, pool.size());
}

TEST(ParallelFor, ChunkedPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for_chunked(
                   0, 1 << 14,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 0) throw std::runtime_error("boom");
                   },
                   /*grain=*/1, &pool),
               std::runtime_error);
}

TEST(ParallelFor, WillDispatchMatchesInlineRules) {
  ThreadPool pool(4);
  // Below the grain: runs inline regardless of pool size.
  EXPECT_FALSE(parallel_will_dispatch(10, /*grain=*/1000, &pool));
  EXPECT_TRUE(parallel_will_dispatch(10, /*grain=*/1, &pool));
  ThreadPool single(1);
  EXPECT_FALSE(parallel_will_dispatch(1 << 20, /*grain=*/1, &single));
  // From inside a worker of the same pool, a nested loop never dispatches.
  std::atomic<bool> nested_dispatch{false};
  parallel_for_chunked(
      0, 1 << 12,
      [&](std::size_t, std::size_t) {
        if (pool.worker_slot() != 0 &&
            parallel_will_dispatch(1 << 20, 1, &pool)) {
          nested_dispatch.store(true);
        }
      },
      /*grain=*/1, &pool);
  EXPECT_FALSE(nested_dispatch.load());
}

TEST(Table, AlignsAndCounts) {
  Table t("demo");
  t.header({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  t.add("gamma", true);
  EXPECT_EQ(t.row_count(), 3u);
  const auto s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.500"), std::string::npos);
  EXPECT_NE(s.find("yes"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), CheckError);
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "--n=5", "--name", "hello", "--verbose"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 5);
  EXPECT_EQ(cli.get_string("name", ""), "hello");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_int("absent", 9), 9);
  cli.finish();
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.finish(), CheckError);
}

TEST(Cli, RejectsMalformedInt) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("n", 0), CheckError);
}

TEST(Cli, RejectsNonFlagArgument) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(Cli(2, argv), CheckError);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    DC_REQUIRE(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace dc
