#include "support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace dc {

namespace detail {

std::size_t l2_cache_bytes() {
  static const std::size_t bytes = [] {
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) return static_cast<std::size_t>(v);
#endif
    return std::size_t{1} << 20;  // conservative 1 MiB default
  }();
  return bytes;
}

}  // namespace detail

namespace detail {

// Identity of the current thread: which pool it belongs to (nullptr for
// non-workers) and its 1-based slot within that pool.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_slot = 0;

}  // namespace detail

namespace {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("DC_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  bands_ = std::make_unique<BandCursor[]>(threads + 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(std::size_t slot) {
  detail::tl_pool = this;
  detail::tl_slot = slot;
  std::uint64_t seen_epoch = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      return stopping_ || (job_active_ && job_epoch_ != seen_epoch);
    });
    if (job_active_ && job_epoch_ != seen_epoch) {
      seen_epoch = job_epoch_;
      ++job_helpers_;  // counted under mutex_, so finish_job waits for us
      lock.unlock();
      work_on_job();
      lock.lock();
      if (--job_helpers_ == 0) helpers_cv_.notify_all();
      continue;
    }
    if (stopping_) return;  // no job to help with
  }
}

void ThreadPool::run_one_chunk(std::size_t ticket) {
  const std::size_t lo = job_begin_ + ticket * job_chunk_;
  const std::size_t hi = std::min(job_end_, lo + job_chunk_);
  try {
    job_fn_(job_ctx_, lo, hi);
  } catch (...) {
    std::scoped_lock lock(error_mutex_);
    if (!job_error_) job_error_ = std::current_exception();
  }
  if (job_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::scoped_lock lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::work_on_job() {
  if (job_affine_) {
    work_on_affine_job();
    return;
  }
  for (;;) {
    const std::size_t c = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (job_begin_ + c * job_chunk_ >= job_end_) return;  // all claimed
    run_one_chunk(c);
  }
}

void ThreadPool::work_on_affine_job() {
  const std::size_t slots = workers_.size() + 1;
  const std::size_t me = worker_slot();  // caller participates as band 0
  const std::size_t chunks = job_chunks_;
  const auto band_end = [&](std::size_t b) { return (b + 1) * chunks / slots; };
  // Drain the home band first, then sweep the others for leftovers.
  for (std::size_t probe = 0; probe < slots; ++probe) {
    const std::size_t b = (me + probe) % slots;
    const std::size_t end = band_end(b);
    for (;;) {
      const std::size_t c = bands_[b].next.fetch_add(1,
                                                     std::memory_order_relaxed);
      if (c >= end) break;  // band drained (cursor overrun is harmless)
      if (b != me) steals_.fetch_add(1, std::memory_order_relaxed);
      run_one_chunk(c);
    }
  }
}

void ThreadPool::finish_job() {
  {
    std::unique_lock lock(done_mutex_);
    done_cv_.wait(lock, [&] {
      return job_remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  // Every chunk is done, but a worker that woke for this job may still be
  // inside work_on_job() — it can enter late, after the last chunk ran. If
  // the caller returned now and published the next job, that straggler
  // would claim the new job's tickets against half-written job state. So
  // close the job to new helpers and wait until the current ones leave.
  std::unique_lock lock(mutex_);
  job_active_ = false;
  helpers_cv_.wait(lock, [&] { return job_helpers_ == 0; });
}

void ThreadPool::run_chunked(std::size_t begin, std::size_t end,
                             std::size_t chunk_size, ChunkFn fn, void* ctx) {
  if (begin >= end) return;
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + chunk_size - 1) / chunk_size;

  // One job at a time; later callers block here until the pool is free.
  std::scoped_lock job_lock(job_mutex_);
  job_begin_ = begin;
  job_end_ = end;
  job_chunk_ = chunk_size;
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_error_ = nullptr;
  job_affine_ = false;
  job_next_.store(0, std::memory_order_relaxed);
  job_remaining_.store(chunks, std::memory_order_release);
  {
    std::scoped_lock lock(mutex_);
    job_active_ = true;
    ++job_epoch_;
  }
  cv_.notify_all();

  work_on_job();  // the caller participates

  finish_job();
  if (job_error_) std::rethrow_exception(job_error_);
}

void ThreadPool::run_chunked_affine(std::size_t begin, std::size_t end,
                                    std::size_t chunk_size, ChunkFn fn,
                                    void* ctx) {
  if (begin >= end) return;
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const std::size_t count = end - begin;
  const std::size_t chunks = (count + chunk_size - 1) / chunk_size;
  const std::size_t slots = workers_.size() + 1;

  // One job at a time; later callers block here until the pool is free.
  std::scoped_lock job_lock(job_mutex_);
  job_begin_ = begin;
  job_end_ = end;
  job_chunk_ = chunk_size;
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_error_ = nullptr;
  job_affine_ = true;
  job_chunks_ = chunks;
  for (std::size_t b = 0; b < slots; ++b) {
    bands_[b].next.store(b * chunks / slots, std::memory_order_relaxed);
  }
  job_remaining_.store(chunks, std::memory_order_release);
  {
    std::scoped_lock lock(mutex_);
    job_active_ = true;
    ++job_epoch_;
  }
  cv_.notify_all();

  work_on_job();  // the caller drains band 0, then steals

  finish_job();
  job_affine_ = false;
  if (job_error_) std::rethrow_exception(job_error_);
}

}  // namespace dc
