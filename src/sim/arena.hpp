// Generation-stamped communication scratch buffers, reused across cycles.
//
// Every comm_cycle needs per-node delivery slots, per-port claim stamps,
// and a record of where each node sent (for deterministic violation
// reporting); every block cycle needs a stamped plane. Allocating that
// scratch each cycle dominated the simulator's hot path, so the Machine
// owns a CommArena: one registry, keyed by entry type, of scratch that is
// recycled instead of freed.
//
//   * The outbox (Outbox<P>) is a single persistent vector per payload
//     type — the plan pass overwrites every slot each cycle, so it needs
//     no clearing and no stamping.
//   * Inbox slot buffers (InboxBuffer<P>) and block planes
//     (BlockBuffer<T>) are pooled by one template, BufferPool<Buf>. A
//     cycle acquires a buffer (allocating only if the pool is empty — i.e.
//     only on the first cycle, or when the caller keeps several inboxes of
//     the same type alive at once), stamps it with a fresh generation, and
//     returns it wrapped in one move-only handle, Pooled<Buf>, inside an
//     Inbox<P> or BlockInbox<T>. The handle releases the buffer back to
//     the pool on destruction, so steady-state cycles perform zero heap
//     allocations.
//   * The per-slot claim stamps implement the 1-port receive discipline
//     under concurrent delivery: a worker claims receive port v by
//     compare-exchanging claims[v] to the buffer's generation. Because the
//     generation is fresh for every cycle, stamps never need resetting.
//
// A handle shares ownership of its pool, so an inbox stays valid even if
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

/// Type-erased face of one registry entry, so CommArena can total and trim
/// every payload type's scratch at once.
struct ArenaEntry {
  virtual ~ArenaEntry() = default;
  /// Bytes of scratch currently resident in this entry. Pools keep buffers
  /// at their high-water size, so between runs — when every handle has
  /// been recycled — this reads as the run's high-water scratch footprint.
  virtual std::size_t resident_bytes() const = 0;
  /// Releases every pooled (idle) buffer. Buffers still held by live
  /// handles are untouched and recycle into the (now empty) pool as usual.
  virtual void trim() = 0;
};

/// The persistent outbox of payload type P: comm_cycle's plan pass
/// overwrites every slot each cycle, so it needs no clearing, no stamping
/// and no pooling, and a trim keeps it.
template <typename P>
struct Outbox final : ArenaEntry {
  explicit Outbox(std::size_t n) : sends(n) {}
  std::size_t resident_bytes() const override {
    return sends.capacity() * sizeof(std::optional<Send<P>>);
  }
  void trim() override {}
  std::vector<std::optional<Send<P>>> sends;
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
  std::size_t resident_bytes(std::size_t n) const {
    return slots.capacity() * sizeof(std::optional<P>) +
           n * sizeof(std::atomic<std::uint64_t>);
  }
  std::vector<std::optional<P>> slots;
  std::unique_ptr<std::atomic<std::uint64_t>[]> claims;
  std::uint64_t generation = 0;
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
  /// Stamps start at 0 (make_unique value-initializes them), below every
  /// generation the pool hands out.
  explicit BlockBuffer(std::size_t n)
      : stamp(std::make_unique<std::uint64_t[]>(n)) {}
  /// Points the plane at `w` elements per node, growing storage only when
  /// this buffer has never seen a width this large (capacity is kept at the
  /// high-water mark, so steady-state reuse never allocates).
  void set_width(std::size_t n, std::size_t w) {
    width = w;
    if (values.size() < n * w) values.resize(n * w);
  }
  std::size_t resident_bytes(std::size_t n) const {
    return values.capacity() * sizeof(T) + n * sizeof(std::uint64_t);
  }
  std::vector<T> values;  // n * width, node-major
  std::unique_ptr<std::uint64_t[]> stamp;
  std::size_t width = 0;
  std::uint64_t generation = 0;
};

namespace detail {

/// Pool of `Buf` buffers (InboxBuffer<P> or BlockBuffer<T>) for `size`
/// nodes. Each acquire hands out a buffer stamped with a fresh generation
/// from a strictly increasing counter (starting at 1, so zero-initialized
/// stamps can never collide with a live cycle), allocating only when the
/// pool is empty — on first use, or while the caller keeps several buffers
/// of one type alive at once.
template <typename Buf>
struct BufferPool final : ArenaEntry {
  explicit BufferPool(std::size_t n) : size(n) { pool.reserve(8); }

  std::unique_ptr<Buf> acquire() {
    std::unique_ptr<Buf> buf;
    if (!pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
    } else {
      buf = std::make_unique<Buf>(size);
    }
    buf->generation = ++next_generation;
    return buf;
  }

  void release(std::unique_ptr<Buf> buf) { pool.push_back(std::move(buf)); }

  std::size_t resident_bytes() const override {
    std::size_t bytes = 0;
    for (const auto& buf : pool) bytes += buf->resident_bytes(size);
    return bytes;
  }

  void trim() override { pool.clear(); }

  std::size_t size;
  std::vector<std::unique_ptr<Buf>> pool;
  std::uint64_t next_generation = 0;
};

}  // namespace detail

/// Move-only owner of one pooled buffer: dereferences to it and recycles it
/// into its pool on destruction. Holding a handle keeps its buffer out of
/// the pool, so concurrently live handles of one type are each backed by
/// distinct storage. A handle shares ownership of its pool, so it stays
/// valid even if it outlives the Machine.
template <typename Buf>
class Pooled {
 public:
  Pooled() = default;
  Pooled(std::shared_ptr<detail::BufferPool<Buf>> home,
         std::unique_ptr<Buf> buf)
      : home_(std::move(home)), buf_(std::move(buf)) {}

  Pooled(Pooled&& other) noexcept
      : home_(std::move(other.home_)), buf_(std::move(other.buf_)) {}
  Pooled& operator=(Pooled&& other) noexcept {
    if (this != &other) {
      recycle();
      home_ = std::move(other.home_);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  Pooled(const Pooled&) = delete;
  Pooled& operator=(const Pooled&) = delete;

  ~Pooled() { recycle(); }

  explicit operator bool() const { return buf_ != nullptr; }
  Buf* operator->() const { return buf_.get(); }

 private:
  void recycle() {
    if (home_ && buf_) home_->release(std::move(buf_));
    home_.reset();
  }

  std::shared_ptr<detail::BufferPool<Buf>> home_;
  std::unique_ptr<Buf> buf_;
};

/// Per-machine registry of communication scratch, keyed by entry type: one
/// Outbox<P> and one BufferPool<InboxBuffer<P>> per interpreted payload
/// type, one BufferPool<BlockBuffer<T>> per block element type.
class CommArena {
 public:
  /// The (unique) entry of type E, created on first use with capacity for
  /// `n` nodes. Subsequent calls are a hash lookup only.
  template <typename E>
  std::shared_ptr<E> get(std::size_t n) {
    const std::type_index key(typeid(E));
    auto it = entries_.find(key);
    if (it == entries_.end())
      it = entries_.emplace(key, std::make_shared<E>(n)).first;
    return std::static_pointer_cast<E>(it->second);
  }

  /// A buffer from the pool of `Buf` for `n` nodes, stamped with a fresh
  /// generation.
  template <typename Buf>
  Pooled<Buf> acquire(std::size_t n) {
    auto pool = get<detail::BufferPool<Buf>>(n);
    auto buf = pool->acquire();
    return Pooled<Buf>(std::move(pool), std::move(buf));
  }

  /// Bytes of pooled communication scratch resident across every payload
  /// type and block plane. Read between runs (all inboxes recycled) this is
  /// the high-water scratch footprint; feeds the
  /// sim.comm_pool.high_water_bytes gauge.
  std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, entry] : entries_) total += entry->resident_bytes();
    return total;
  }

  /// Drops every idle pooled buffer across all payload types. The sharded
  /// engine's out-of-core mode calls this after a shard's pass so only the
  /// active shard's planes stay resident; steady-state zero-allocation
  /// guarantees do not hold across a trim (the next cycle re-allocates its
  /// plane), which is the explicit trade of spill mode.
  void trim() {
    for (const auto& [key, entry] : entries_) entry->trim();
  }

 private:
  std::unordered_map<std::type_index, std::shared_ptr<detail::ArenaEntry>>
      entries_;
};

/// The result of one comm_cycle: for each node, the payload it received
/// this cycle, if any. Move-only; indexing matches the old
/// std::vector<std::optional<P>> interface exactly. Destroying the Inbox
/// recycles its buffer for a later cycle.
template <typename P>
class Inbox {
 public:
  Inbox() = default;
  explicit Inbox(Pooled<detail::InboxBuffer<P>> buf) : buf_(std::move(buf)) {}

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
  Pooled<detail::InboxBuffer<P>> buf_;
};

/// The result of one block comm cycle: a structure-of-arrays plane of
/// fixed-width blocks. `has(v)` tells whether node v received a block this
/// cycle; `block(v)` points at its `width()` contiguous elements. Move-only,
/// recycles its plane into the pool on destruction, exactly like Inbox.
template <typename T>
class BlockInbox {
 public:
  BlockInbox() = default;
  explicit BlockInbox(Pooled<BlockBuffer<T>> buf) : buf_(std::move(buf)) {}

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
  Pooled<BlockBuffer<T>> buf_;
};

}  // namespace dc::sim
