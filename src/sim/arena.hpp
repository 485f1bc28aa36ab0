// Generation-stamped communication scratch buffers, reused across cycles.
//
// Every comm_cycle needs per-node delivery slots, per-port claim stamps,
// and a record of where each node sent (for deterministic violation
// reporting). Allocating that scratch each cycle dominated the simulator's
// hot path, so the Machine owns a CommArena: a per-payload-type registry of
// scratch buffers that are recycled instead of freed.
//
//   * The outbox is a single persistent vector per payload type — the plan
//     pass overwrites every slot each cycle, so it needs no clearing and no
//     stamping.
//   * Inbox buffers are pooled. A cycle acquires a buffer (allocating only
//     if the pool is empty — i.e. only on the first cycle, or when the
//     caller keeps several inboxes of the same type alive at once), stamps
//     it with a fresh generation, and returns it to the caller wrapped in
//     an Inbox<P>. The Inbox releases the buffer back to the pool on
//     destruction, so steady-state cycles perform zero heap allocations.
//   * The per-slot claim stamps implement the 1-port receive discipline
//     under concurrent delivery: a worker claims receive port v by
//     compare-exchanging claims[v] to the buffer's generation. Because the
//     generation is fresh for every cycle, stamps never need resetting.
//
// An Inbox shares ownership of its typed arena, so it stays valid even if
// it happens to outlive the Machine (in practice inboxes are consumed
// within the enclosing algorithm step). The arena is not thread-safe; a
// Machine is driven by one caller thread, which is the existing simulator
// contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "topology/topology.hpp"

namespace dc::sim {

/// A single outgoing message.
template <typename P>
struct Send {
  net::NodeId to;
  P payload;
};

namespace detail {

struct ArenaBase {
  virtual ~ArenaBase() = default;
  /// Bytes of scratch currently resident in this arena (persistent outbox
  /// plus pooled buffers). Pools keep buffers at their high-water size, so
  /// between runs — when every Inbox has been recycled — this reads as the
  /// run's high-water scratch footprint.
  virtual std::size_t resident_bytes() const = 0;
  /// Releases every pooled (idle) buffer. Buffers still held by live
  /// Inboxes are untouched and recycle into the (now empty) pool as usual.
  virtual void trim() = 0;
};

/// One pooled inbox: payload slots plus atomic claim stamps per receive
/// port. A slot holds a delivered payload iff the delivery pass claimed it
/// this cycle; stale stamps from earlier cycles never match the fresh
/// generation, so nothing is cleared between reuses except the payload
/// optionals (reset by the fused plan pass).
template <typename P>
struct InboxBuffer {
  explicit InboxBuffer(std::size_t n)
      : slots(n), claims(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {
    for (std::size_t i = 0; i < n; ++i)
      claims[i].store(0, std::memory_order_relaxed);
  }
  std::vector<std::optional<P>> slots;
  std::unique_ptr<std::atomic<std::uint64_t>[]> claims;
  std::uint64_t generation = 0;
};

/// All scratch for one payload type: the persistent outbox and the inbox
/// buffer pool. Generations are handed out from a strictly increasing
/// counter (starting at 1, so the zero-initialized claim stamps can never
/// collide with a live cycle).
template <typename P>
struct TypedArena final : ArenaBase {
  explicit TypedArena(std::size_t n) : size(n), outbox(n) {
    pool.reserve(8);
  }

  std::unique_ptr<InboxBuffer<P>> acquire() {
    std::unique_ptr<InboxBuffer<P>> buf;
    if (!pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
    } else {
      buf = std::make_unique<InboxBuffer<P>>(size);
    }
    buf->generation = ++next_generation;
    return buf;
  }

  void release(std::unique_ptr<InboxBuffer<P>> buf) {
    pool.push_back(std::move(buf));
  }

  std::size_t resident_bytes() const override {
    std::size_t bytes = outbox.capacity() * sizeof(std::optional<Send<P>>);
    for (const auto& buf : pool) {
      bytes += buf->slots.capacity() * sizeof(std::optional<P>);
      bytes += size * sizeof(std::atomic<std::uint64_t>);
    }
    return bytes;
  }

  void trim() override { pool.clear(); }

  std::size_t size;
  std::vector<std::optional<Send<P>>> outbox;
  std::vector<std::unique_ptr<InboxBuffer<P>>> pool;
  std::uint64_t next_generation = 0;
};

}  // namespace detail

/// One pooled structure-of-arrays payload plane for fixed-width block
/// messages: `values[v * width + k]` is element k of the block delivered to
/// node v, and the block is present iff `stamp[v] == generation`. Unlike
/// InboxBuffer there are no per-slot atomics: the plane is only written by
/// the replay gather or the interpreted-path packer, each of which writes
/// every row v from exactly one worker, so both are race-free by
/// construction.
template <typename T>
struct BlockBuffer {
  explicit BlockBuffer(std::size_t n)
      : stamp(std::make_unique<std::uint64_t[]>(n)) {
    for (std::size_t i = 0; i < n; ++i) stamp[i] = 0;
  }
  /// Points the plane at `w` elements per node, growing storage only when
  /// this buffer has never seen a width this large (capacity is kept at the
  /// high-water mark, so steady-state reuse never allocates).
  void set_width(std::size_t n, std::size_t w) {
    width = w;
    if (values.size() < n * w) values.resize(n * w);
  }
  std::vector<T> values;  // n * width, node-major
  std::unique_ptr<std::uint64_t[]> stamp;
  std::size_t width = 0;
  std::uint64_t generation = 0;
};

namespace detail {

/// Pool of BlockBuffer<T> planes for one element type, mirroring
/// TypedArena's acquire/release + generation discipline.
template <typename T>
struct TypedBlockArena final : ArenaBase {
  explicit TypedBlockArena(std::size_t n) : size(n) { pool.reserve(8); }

  std::unique_ptr<BlockBuffer<T>> acquire(std::size_t width) {
    std::unique_ptr<BlockBuffer<T>> buf;
    if (!pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
    } else {
      buf = std::make_unique<BlockBuffer<T>>(size);
    }
    buf->set_width(size, width);
    buf->generation = ++next_generation;
    return buf;
  }

  void release(std::unique_ptr<BlockBuffer<T>> buf) {
    pool.push_back(std::move(buf));
  }

  std::size_t resident_bytes() const override {
    std::size_t bytes = 0;
    for (const auto& buf : pool) {
      bytes += buf->values.capacity() * sizeof(T);
      bytes += size * sizeof(std::uint64_t);  // stamps
    }
    return bytes;
  }

  void trim() override { pool.clear(); }

  std::size_t size;
  std::vector<std::unique_ptr<BlockBuffer<T>>> pool;
  std::uint64_t next_generation = 0;
};

}  // namespace detail

/// Per-payload-type registry of communication scratch, owned by a Machine.
class CommArena {
 public:
  /// The (unique) arena for payload type P, created on first use with
  /// capacity for `n` nodes. Subsequent calls are a hash lookup only.
  template <typename P>
  std::shared_ptr<detail::TypedArena<P>> get(std::size_t n) {
    const std::type_index key(typeid(P));
    auto it = arenas_.find(key);
    if (it == arenas_.end()) {
      it = arenas_.emplace(key, std::make_shared<detail::TypedArena<P>>(n))
               .first;
    }
    return std::static_pointer_cast<detail::TypedArena<P>>(it->second);
  }

  /// The (unique) block-plane arena for element type T. Keyed separately
  /// from the scalar arena of the same T: planes and slot buffers have
  /// different shapes and pooling lifetimes.
  template <typename T>
  std::shared_ptr<detail::TypedBlockArena<T>> get_blocks(std::size_t n) {
    const std::type_index key(typeid(T));
    auto it = block_arenas_.find(key);
    if (it == block_arenas_.end()) {
      it = block_arenas_
               .emplace(key, std::make_shared<detail::TypedBlockArena<T>>(n))
               .first;
    }
    return std::static_pointer_cast<detail::TypedBlockArena<T>>(it->second);
  }

  /// Bytes of pooled communication scratch resident across every payload
  /// type and block plane. Read between runs (all inboxes recycled) this is
  /// the high-water scratch footprint; feeds the
  /// sim.comm_pool.high_water_bytes gauge.
  std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, arena] : arenas_) total += arena->resident_bytes();
    for (const auto& [key, arena] : block_arenas_)
      total += arena->resident_bytes();
    return total;
  }

  /// Drops every idle pooled buffer across all payload types. The sharded
  /// engine's out-of-core mode calls this after a shard's pass so only the
  /// active shard's planes stay resident; steady-state zero-allocation
  /// guarantees do not hold across a trim (the next cycle re-allocates its
  /// plane), which is the explicit trade of spill mode.
  void trim() {
    for (const auto& [key, arena] : arenas_) arena->trim();
    for (const auto& [key, arena] : block_arenas_) arena->trim();
  }

 private:
  std::unordered_map<std::type_index, std::shared_ptr<detail::ArenaBase>>
      arenas_;
  std::unordered_map<std::type_index, std::shared_ptr<detail::ArenaBase>>
      block_arenas_;
};

/// The result of one comm_cycle: for each node, the payload it received
/// this cycle, if any. Move-only; indexing matches the old
/// std::vector<std::optional<P>> interface exactly. Holding an Inbox keeps
/// its buffer out of the pool, so concurrently live inboxes of the same
/// payload type are each backed by distinct storage; destroying the Inbox
/// recycles the buffer for a later cycle.
template <typename P>
class Inbox {
 public:
  Inbox() = default;
  Inbox(std::shared_ptr<detail::TypedArena<P>> home,
        std::unique_ptr<detail::InboxBuffer<P>> buf)
      : home_(std::move(home)), buf_(std::move(buf)) {}

  Inbox(Inbox&& other) noexcept
      : home_(std::move(other.home_)), buf_(std::move(other.buf_)) {}
  Inbox& operator=(Inbox&& other) noexcept {
    if (this != &other) {
      recycle();
      home_ = std::move(other.home_);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  ~Inbox() { recycle(); }

  std::optional<P>& operator[](net::NodeId u) {
    return buf_->slots[static_cast<std::size_t>(u)];
  }
  const std::optional<P>& operator[](net::NodeId u) const {
    return buf_->slots[static_cast<std::size_t>(u)];
  }

  std::size_t size() const { return buf_ ? buf_->slots.size() : 0; }
  /// The slots as one array: data()[u] is (*this)[u].
  const std::optional<P>* data() const { return buf_->slots.data(); }

 private:
  void recycle() {
    if (home_ && buf_) home_->release(std::move(buf_));
    home_.reset();
  }

  std::shared_ptr<detail::TypedArena<P>> home_;
  std::unique_ptr<detail::InboxBuffer<P>> buf_;
};

/// The result of one block comm cycle: a structure-of-arrays plane of
/// fixed-width blocks. `has(v)` tells whether node v received a block this
/// cycle; `block(v)` points at its `width()` contiguous elements. Move-only,
/// recycles its plane into the pool on destruction, exactly like Inbox.
template <typename T>
class BlockInbox {
 public:
  BlockInbox() = default;
  BlockInbox(std::shared_ptr<detail::TypedBlockArena<T>> home,
             std::unique_ptr<BlockBuffer<T>> buf)
      : home_(std::move(home)), buf_(std::move(buf)) {}

  BlockInbox(BlockInbox&& other) noexcept
      : home_(std::move(other.home_)), buf_(std::move(other.buf_)) {}
  BlockInbox& operator=(BlockInbox&& other) noexcept {
    if (this != &other) {
      recycle();
      home_ = std::move(other.home_);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  BlockInbox(const BlockInbox&) = delete;
  BlockInbox& operator=(const BlockInbox&) = delete;

  ~BlockInbox() { recycle(); }

  /// True iff node v received a block this cycle.
  bool has(net::NodeId v) const {
    return buf_->stamp[static_cast<std::size_t>(v)] == buf_->generation;
  }
  /// Node v's received block (`width()` elements). Only meaningful when
  /// has(v).
  const T* block(net::NodeId v) const {
    return buf_->values.data() + static_cast<std::size_t>(v) * buf_->width;
  }

  /// The whole node-major plane: block(v) == data() + v * stride(). Lets
  /// callers hand a received plane straight back to the simulator as a
  /// PlaneSrc for the next block cycle (no copy-out).
  const T* data() const { return buf_->values.data(); }
  std::size_t stride() const { return buf_->width; }

  std::size_t width() const { return buf_ ? buf_->width : 0; }

 private:
  void recycle() {
    if (home_ && buf_) home_->release(std::move(buf_));
    home_.reset();
  }

  std::shared_ptr<detail::TypedBlockArena<T>> home_;
  std::unique_ptr<BlockBuffer<T>> buf_;
};

}  // namespace dc::sim
