// A persistent fixed-size thread pool plus blocking parallel loops built on
// it.
//
// The simulator executes one synchronous "cycle" at a time; within a cycle
// every virtual node acts independently, which is an embarrassingly parallel
// loop. We follow CP.4 (think in terms of tasks, not threads): callers only
// ever submit range-tasks through parallel_for / parallel_for_chunked and
// never touch threads.
//
// Dispatch model. A parallel loop is one *job*: the index range is split
// into fixed contiguous chunks and workers (plus the calling thread, which
// participates) claim chunks with an atomic ticket counter — no per-chunk
// task objects, no std::function, no allocation. Chunk *boundaries* are a
// pure function of (range, pool size), so per-index writes to disjoint
// slots are race-free and runs are deterministic from the caller's point of
// view regardless of which thread happens to execute which chunk. The call
// does not return until every chunk has completed; if any iteration throws,
// one captured exception is rethrown on the caller after all chunks drain.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dc {

/// Persistent worker pool executing chunked range jobs.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means the DC_THREADS environment variable
  /// if set, otherwise std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Stable identity of the current thread within *this* pool: workers get
  /// 1..size(), every other thread (including the caller participating in a
  /// chunked job) gets 0. Used to index per-worker accumulation arrays.
  /// Inline (two thread-local reads) — cheap enough for per-element use.
  std::size_t worker_slot() const;

  /// Type-erased chunk body: fn(ctx, lo, hi) runs indices [lo, hi).
  using ChunkFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  /// Runs [begin, end) split into contiguous chunks of `chunk_size` (the
  /// last may be short). The calling thread participates; workers claim
  /// chunks via an atomic ticket counter. Blocks until all chunks complete;
  /// rethrows one captured exception afterwards. One job runs at a time —
  /// concurrent callers serialize. Must not be called from a worker of this
  /// pool (parallel_for_chunked falls back to inline execution instead).
  void run_chunked(std::size_t begin, std::size_t end, std::size_t chunk_size,
                   ChunkFn fn, void* ctx);

  /// Cache-affine variant of run_chunked: identical chunk boundaries and
  /// completion semantics, but the chunk tickets are pre-partitioned into
  /// one contiguous *band* per participant (caller = band 0, workers
  /// 1..size(), in slot order). Each thread drains its own band first and
  /// only then scans the other bands for leftovers, so repeated affine runs
  /// over the same index range keep each receiver range on the same thread
  /// — and thus in the same core's cache — whenever the pool keeps up.
  /// Chunks executed outside their home band are counted in
  /// affinity_steals().
  void run_chunked_affine(std::size_t begin, std::size_t end,
                          std::size_t chunk_size, ChunkFn fn, void* ctx);

  /// Cumulative count of affine-job chunks a thread executed outside its
  /// home band (work stolen to avoid idling). Zero on a pool that always
  /// keeps up — every chunk then runs on its cache-home thread.
  std::uint64_t affinity_steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Process-wide shared pool, created on first use.
  static ThreadPool& shared();

 private:
  void worker_loop(std::size_t slot);
  void work_on_job();
  void work_on_affine_job();
  void run_one_chunk(std::size_t ticket);
  void finish_job();

  // guards stopping_, job_active_, job_epoch_, job_helpers_
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;

  // Chunked-job state. job_mutex_ is held by the submitting caller for the
  // whole job, serializing jobs; the remaining fields describe the one
  // active job.
  std::mutex job_mutex_;
  bool job_active_ = false;
  std::uint64_t job_epoch_ = 0;
  // Workers currently inside work_on_job(); the caller waits for zero
  // before releasing the job (finish_job).
  std::size_t job_helpers_ = 0;
  std::condition_variable helpers_cv_;
  std::size_t job_begin_ = 0;
  std::size_t job_end_ = 0;
  std::size_t job_chunk_ = 0;
  ChunkFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::atomic<std::size_t> job_next_{0};
  std::atomic<std::size_t> job_remaining_{0};
  std::mutex error_mutex_;
  std::exception_ptr job_error_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  // Affine-job state: per-participant band cursors (padded so concurrent
  // claims never false-share) plus the chunk count that defines the band
  // boundaries. Band b of an affine job owns chunk tickets
  // [b*chunks/(size+1), (b+1)*chunks/(size+1)).
  struct alignas(64) BandCursor {
    std::atomic<std::size_t> next{0};
  };
  bool job_affine_ = false;
  std::size_t job_chunks_ = 0;
  std::unique_ptr<BandCursor[]> bands_;  // size() + 1, fixed at construction
  std::atomic<std::uint64_t> steals_{0};
};

namespace detail {
extern thread_local const ThreadPool* tl_pool;
extern thread_local std::size_t tl_slot;
}  // namespace detail

inline std::size_t ThreadPool::worker_slot() const {
  return detail::tl_pool == this ? detail::tl_slot : 0;
}

/// Ranges at or below this many indices run inline on the caller — the
/// dispatch overhead is not worth it below this size.
inline constexpr std::size_t kParallelInlineThreshold = 2048;

/// True iff a parallel_for_chunked call with these parameters would fan out
/// to pool workers (as opposed to running inline on the caller). Lets
/// callers pick a cheaper single-threaded code path — e.g. the simulator
/// claims receive ports with plain stamp writes instead of compare-exchange
/// when delivery is known to run on one thread.
inline bool parallel_will_dispatch(std::size_t count, std::size_t grain = 0,
                                   ThreadPool* pool = nullptr) {
  if (grain == 0) grain = kParallelInlineThreshold;
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  return p.size() > 1 && count > grain && p.worker_slot() == 0;
}

/// Runs body(lo, hi) over contiguous sub-ranges covering [begin, end),
/// blocking until all complete. The callable is invoked once per chunk (not
/// per element) with zero heap allocation. `grain` is the inline threshold
/// (0 = kParallelInlineThreshold); `pool` selects a pool (nullptr = shared).
/// Nested calls from a pool worker run inline. Exceptions: one captured
/// exception is rethrown on the caller after all chunks drain.
template <typename Body>
void parallel_for_chunked(std::size_t begin, std::size_t end, Body&& body,
                          std::size_t grain = 0, ThreadPool* pool = nullptr) {
  if (begin >= end) return;
  if (!parallel_will_dispatch(end - begin, grain, pool)) {
    body(begin, end);
    return;
  }
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  const std::size_t count = end - begin;
  const std::size_t chunks = std::min(count, p.size() * 4);
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  using B = std::remove_reference_t<Body>;
  p.run_chunked(
      begin, end, chunk_size,
      [](void* ctx, std::size_t lo, std::size_t hi) {
        (*static_cast<B*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

namespace detail {

/// Per-core L2 data-cache size in bytes, read once from the OS (sysconf)
/// with a 1 MiB fallback when the platform does not report it.
std::size_t l2_cache_bytes();

/// Largest chunk length (in indices) whose working set still fits half the
/// L2 — the budget an affine band spends per chunk so its plane writes stay
/// resident in its slot's cache.
inline std::size_t l2_chunk_elems(std::size_t bytes_per_index) {
  if (bytes_per_index == 0) bytes_per_index = 1;
  return std::max<std::size_t>(1, l2_cache_bytes() / 2 / bytes_per_index);
}

}  // namespace detail

/// Cache/NUMA-aware parallel loop: like parallel_for_chunked, but chunks
/// are receiver-contiguous ranges assigned to a stable home participant
/// (ThreadPool::run_chunked_affine), and the chunk length is capped so one
/// chunk's working set — `bytes_per_index` bytes per loop index — fits in
/// half the per-core L2. Repeated affine loops over the same range land
/// each index range on the same worker slot, so a replay pass re-touches
/// planes its core already owns. Semantics (blocking, exceptions, inline
/// small ranges, determinism of chunk boundaries) match
/// parallel_for_chunked exactly.
template <typename Body>
void parallel_for_affine(std::size_t begin, std::size_t end,
                         std::size_t bytes_per_index, Body&& body,
                         std::size_t grain = 0, ThreadPool* pool = nullptr) {
  if (begin >= end) return;
  if (!parallel_will_dispatch(end - begin, grain, pool)) {
    body(begin, end);
    return;
  }
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  const std::size_t count = end - begin;
  const std::size_t participants = p.size() + 1;
  // At least 4 chunks per participant for load balance, but no chunk
  // working set past the L2 budget.
  const std::size_t balance =
      (count + participants * 4 - 1) / (participants * 4);
  const std::size_t chunk_size = std::max<std::size_t>(
      1, std::min(balance, detail::l2_chunk_elems(bytes_per_index)));
  using B = std::remove_reference_t<Body>;
  p.run_chunked_affine(
      begin, end, chunk_size,
      [](void* ctx, std::size_t lo, std::size_t hi) {
        (*static_cast<B*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

/// Runs fn(i) for every i in [begin, end) using the shared pool, blocking
/// until all iterations finish. Small ranges run inline. If any iteration
/// throws, one of the exceptions is rethrown on the calling thread after all
/// chunks have drained.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& fn) {
  parallel_for_chunked(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace dc
