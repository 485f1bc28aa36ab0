// Compiled oblivious communication schedules: record once, validate once,
// replay as XOR-mask block copies (or, off the mask form, dense gathers).
//
// Every algorithm in this repository is *communication-oblivious*: the
// destination of each node in each cycle depends only on the topology and
// the cycle index, never on the payloads (the same data-independence that
// makes a sorting network a network). The interpreted comm_cycle pays for
// that obliviousness every cycle anyway — it re-derives destinations
// through the planning lambdas, re-validates every message against the CSR
// adjacency, and claims receive ports. A Schedule removes all of that from
// the steady state:
//
//   * record — the first run of an algorithm executes through the normal
//     interpreted comm_cycle (so link and 1-port validation, SimError
//     messages, counters, traces and edge loads are byte-identical to the
//     historical path) while capturing each cycle's destinations into one
//     n-sized scratch array;
//   * compile — each recorded cycle is compiled when the next one starts
//     (the last one at commit), so no per-cycle array outlives recording.
//     Every link of the dual-cube family flips one label bit, so a cycle
//     of Algorithms 2 and 3 pairs nodes by an XOR mask chosen by one label
//     bit: the receivers are {v : v & p = q}, and v's sender is v ^ m1 if
//     bit s of v is set and v ^ m0 otherwise. A cycle that form reproduces
//     exactly — every receiver's sender and every non-receiver — is stored
//     compact, as six words (m0, m1, s, p, q, message count) plus its node
//     count. Any other cycle is inverted into receiver-major dense arrays:
//     recv_from[v] = the sender delivering to v (or kNoSender), plus the
//     CSR edge slot of that directed edge, resolved once so hot-spot
//     accounting becomes a plain indexed add;
//   * replay — Machine::comm_cycle_scheduled_blocks runs one chunked
//     parallel pass over the receivers, one fixed-width block per message
//     (width 1 for scalar payloads). A compact cycle's receivers come in
//     aligned runs whose senders are another aligned run in order, so each
//     run is one block copy (the prefix's cross-edge cycle is two
//     half-plane copies); a dense cycle gathers row v = src(recv_from[v]).
//     No planning lambdas, no adjacency lookups, no claim CAS, no
//     per-message validation.
//
// Readers outside the replay kernels (profiler, fusion, edge-load booking,
// tests) read either form through ScheduleCycle::sender(v).
//
// Schedules are cached process-wide, keyed by (topology identity, algorithm
// tag, parameters, validation flag); the topology identity is the name plus
// the FlatAdjacency fingerprint, so two different graphs can never share a
// schedule. A run that throws SimError never commits, so invalid plans are
// never cached. See sim/oblivious.hpp for the driver algorithms use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/bits.hpp"
#include "support/check.hpp"
#include "topology/flat_adjacency.hpp"
#include "topology/topology.hpp"

namespace dc::sim {

/// Destination sentinel: the node sends nothing this cycle.
inline constexpr net::NodeId kNoSend = ~net::NodeId{0};
/// Receiver-side sentinel: nothing arrives at this node this cycle.
inline constexpr net::NodeId kNoSender = ~net::NodeId{0};
/// Edge-slot sentinel: no CSR slot was resolved for this delivery at
/// compile time — a compact cycle (which stores no slots), or a hop that is
/// no edge (possible only when link validation is disabled). Edge-load
/// booking resolves it from the CSR and books a non-edge off-CSR.
inline constexpr std::uint32_t kNoEdgeSlot = 0xFFFFFFFFu;

/// Which execution path oblivious algorithms take on a Machine.
enum class SchedulePath {
  kCompiled,     ///< record + cache on first run, replay afterwards
  kInterpreted,  ///< plan / validate / claim every cycle
};

/// Dense per-node array of a compiled cycle that either owns its storage
/// (recorded schedules) or borrows it from a read-only
/// mapping (schedules loaded from a persistent store, whose arrays live in
/// mmapped file pages shared across processes). Replay only ever reads
/// data()/size(), so both flavors are identical on the hot path; the
/// mutating calls (assign/resize/operator[]) are owned-only and used by
/// recorders and tests.
template <typename T>
class CycleArray {
 public:
  CycleArray() = default;

  /// Borrows `size` elements at `data` — the caller keeps them alive and
  /// immutable for the array's lifetime (the mapped Schedule holds the
  /// mapping).
  static CycleArray view(const T* data, std::size_t size) {
    CycleArray a;
    a.view_data_ = data;
    a.view_size_ = size;
    return a;
  }

  void assign(std::size_t n, const T& v) {
    view_data_ = nullptr;
    view_size_ = 0;
    owned_.assign(n, v);
  }
  void resize(std::size_t n) {
    view_data_ = nullptr;
    view_size_ = 0;
    owned_.resize(n);
  }

  const T* data() const { return view_data_ ? view_data_ : owned_.data(); }
  std::size_t size() const { return view_data_ ? view_size_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  bool borrowed() const { return view_data_ != nullptr; }

  const T& operator[](std::size_t i) const { return data()[i]; }
  T& operator[](std::size_t i) {
    DC_REQUIRE(!view_data_, "mapped schedule arrays are immutable");
    return owned_[i];
  }

  /// Heap bytes owned by this array (0 for a borrowed view — mapped bytes
  /// are accounted once per Schedule, not per cycle).
  std::size_t owned_capacity_bytes() const {
    return owned_.capacity() * sizeof(T);
  }

 private:
  std::vector<T> owned_;
  const T* view_data_ = nullptr;
  std::size_t view_size_ = 0;
};

/// The XOR-mask form of one cycle on 2^k nodes: node v receives iff
/// (v & recv_mask) == recv_match, from v ^ mask1 when bit `select` of v is
/// set and from v ^ mask0 otherwise.
struct XorForm {
  std::uint64_t mask0 = 0;       ///< m0
  std::uint64_t mask1 = 0;       ///< m1
  std::uint64_t select = 0;      ///< s
  std::uint64_t recv_mask = 0;   ///< p
  std::uint64_t recv_match = 0;  ///< q
  bool operator==(const XorForm&) const = default;

  bool receives(std::uint64_t v) const {
    return (v & recv_mask) == recv_match;
  }
  /// v's sender; meaningful only when receives(v).
  net::NodeId sender_of(std::uint64_t v) const {
    return v ^ (((v >> select) & 1u) != 0 ? mask1 : mask0);
  }
  /// Messages the form delivers on n nodes: one per receiver.
  std::uint64_t message_count(std::uint64_t n) const {
    return n >> bits::popcount(recv_mask);
  }
  /// True iff every field fits n nodes: n is a power of two (at least 2),
  /// masks and p are labels, q lies inside p and s names a label bit — so
  /// every sender the form computes is a node.
  bool fits(std::uint64_t n) const {
    return n >= 2 && bits::is_pow2(n) && mask0 < n && mask1 < n &&
           recv_mask < n && (recv_match & ~recv_mask) == 0 &&
           select < bits::log2_floor(n);
  }
  /// Rows per aligned run on n nodes: the largest 2^k such that every
  /// aligned run of 2^k receivers is either wholly received or wholly not,
  /// from an aligned run of senders in the same order (no field has a bit
  /// below k). Replay copies each run as one block.
  std::size_t run_rows(std::uint64_t n) const {
    unsigned k = bits::lowest_set(recv_mask | n);
    k = std::min(k, bits::lowest_set(mask0 | n));
    k = std::min(k, bits::lowest_set(mask1 | n));
    if (mask0 != mask1) k = std::min(k, static_cast<unsigned>(select));
    return std::size_t{1} << k;
  }
};

/// Returns the XOR-mask form that reproduces the cycle whose sender-major
/// destinations are dest[u] (kNoSend: u sends nothing) exactly — every
/// receiver's sender and every non-receiver — or nothing when no form does.
/// One pass: p and q are the bits every receiver shares, the receiver count
/// must fill that subcube, and the per-receiver masks u ^ v may take at
/// most two values, split by one label bit s. Because the form makes each
/// receiver's sender a function of the receiver, distinct senders have
/// distinct receivers, so a matching count makes the receiver set exactly
/// the subcube.
inline std::optional<XorForm> match_xor_form(const net::NodeId* dest,
                                             std::size_t n) {
  if (n < 2 || !bits::is_pow2(n)) return std::nullopt;
  const std::uint64_t labels = n - 1;
  std::uint64_t all_set = labels;  // AND of the receivers
  std::uint64_t any_set = 0;       // OR of the receivers
  std::uint64_t count = 0;
  std::uint64_t first = 0;         // the first receiver seen...
  std::uint64_t mask_a = 0;        // ...and its mask
  std::uint64_t mask_b = 0;        // the other mask, once seen
  bool have_b = false;
  std::uint64_t a_differ = 0;      // bits where some a-receiver leaves `first`
  std::uint64_t b_differ = labels; // bits where every b-receiver leaves it
  for (std::uint64_t u = 0; u < n; ++u) {
    const std::uint64_t v = dest[u];
    if (v == kNoSend) continue;
    if (v >= n) return std::nullopt;
    const std::uint64_t mask = u ^ v;
    all_set &= v;
    any_set |= v;
    if (count++ == 0) {
      first = v;
      mask_a = mask;
    } else if (mask == mask_a) {
      a_differ |= v ^ first;
    } else if (!have_b || mask == mask_b) {
      mask_b = mask;
      have_b = true;
      b_differ &= v ^ first;
    } else {
      return std::nullopt;  // a third mask
    }
  }
  XorForm f;
  f.recv_mask = (all_set | ~any_set) & labels;
  f.recv_match = all_set;
  if (count == 0 || count != f.message_count(n)) return std::nullopt;
  f.mask0 = f.mask1 = mask_a;
  if (have_b) {
    const std::uint64_t split = b_differ & ~a_differ;
    if (split == 0) return std::nullopt;
    f.select = bits::lowest_set(split);
    ((first >> f.select) & 1u ? f.mask0 : f.mask1) = mask_b;
  }
  return f;
}

/// One compiled cycle, in one of two forms. Compact (xor_form set): the
/// XOR-mask form and the node count, O(1) bytes. Dense: receiver-major
/// ("gather") arrays, recv_from[v] = sender or kNoSender and recv_slot[v] =
/// the CSR slot of that edge. Both are derived from a validated record run
/// (or a store file whose loader checked them), so replay needs no checks:
/// each receiver has at most one sender by construction. Readers outside
/// the replay kernels use the accessors, which serve both forms.
struct ScheduleCycle {
  CycleArray<net::NodeId> recv_from;      ///< dense: sender or kNoSender
  CycleArray<std::uint32_t> recv_slot;    ///< dense: CSR slot of the edge
  std::uint64_t message_count = 0;        ///< messages delivered this cycle
  std::optional<XorForm> xor_form;        ///< set iff the cycle is compact
  std::uint64_t compact_nodes = 0;        ///< node count of a compact cycle

  /// The compact cycle of `form` on n nodes (form.fits(n) must hold).
  static ScheduleCycle compact(std::uint64_t n, const XorForm& form) {
    ScheduleCycle c;
    c.xor_form = form;
    c.compact_nodes = n;
    c.message_count = form.message_count(n);
    return c;
  }

  bool is_compact() const { return xor_form.has_value(); }
  std::size_t node_count() const {
    return xor_form ? static_cast<std::size_t>(compact_nodes)
                    : recv_from.size();
  }
  /// The node delivering to v this cycle, or kNoSender.
  net::NodeId sender(std::size_t v) const {
    if (!xor_form) return recv_from[v];
    return xor_form->receives(v) ? xor_form->sender_of(v) : kNoSender;
  }
  bool receives(std::size_t v) const {
    return xor_form ? xor_form->receives(v) : recv_from[v] != kNoSender;
  }
  /// The compiled CSR slot of v's delivery: recv_slot[v] when dense,
  /// kNoEdgeSlot (resolved from the CSR when booked) when compact.
  std::uint32_t edge_slot(std::size_t v) const {
    return xor_form ? kNoEdgeSlot : recv_slot[v];
  }
};

/// An immutable compiled schedule: the full cycle sequence of one
/// algorithm's run on one topology.
class Schedule {
 public:
  explicit Schedule(std::vector<ScheduleCycle> cycles)
      : cycles_(std::move(cycles)) {
    compute_byte_size();
  }

  /// A schedule whose cycle arrays are views into `mapping` (a read-only
  /// mmapped store file of `mapped_bytes`). The mapping is released when
  /// the last reference to this schedule drops.
  Schedule(std::vector<ScheduleCycle> cycles,
           std::shared_ptr<const void> mapping, std::size_t mapped_bytes)
      : cycles_(std::move(cycles)),
        mapping_(std::move(mapping)),
        mapped_bytes_(mapped_bytes) {
    compute_byte_size();
  }

  std::size_t cycle_count() const { return cycles_.size(); }
  const ScheduleCycle& cycle(std::size_t i) const {
    DC_REQUIRE(i < cycles_.size(), "schedule cycle index out of range");
    return cycles_[i];
  }
  std::span<const ScheduleCycle> cycles() const { return cycles_; }

  /// Resident bytes of this schedule (owned arrays, bookkeeping, and the
  /// full mapped region for disk-loaded schedules), computed once at
  /// construction — the unit ScheduleCache budgets in.
  std::size_t byte_size() const { return byte_size_; }

  /// Bytes of the read-only file mapping backing this schedule (0 when the
  /// arrays are heap-owned).
  std::size_t mapped_bytes() const { return mapped_bytes_; }

 private:
  void compute_byte_size() {
    byte_size_ = sizeof(Schedule) + mapped_bytes_;
    for (const ScheduleCycle& c : cycles_) {
      byte_size_ += sizeof(ScheduleCycle);
      byte_size_ += c.recv_from.owned_capacity_bytes();
      byte_size_ += c.recv_slot.owned_capacity_bytes();
    }
  }

  std::vector<ScheduleCycle> cycles_;
  std::shared_ptr<const void> mapping_;
  std::size_t mapped_bytes_ = 0;
  std::size_t byte_size_ = 0;
};

/// Cache key. `topology` must identify the graph, not just the family —
/// ObliviousSection uses name() + the adjacency fingerprint. `validate`
/// participates because a schedule recorded with link validation off may
/// contain non-edges a validating machine must keep rejecting.
struct ScheduleKey {
  std::string topology;
  std::string algorithm;
  std::vector<dc::u64> params;
  bool validate = true;

  friend bool operator==(const ScheduleKey&, const ScheduleKey&) = default;
};

struct ScheduleKeyHash {
  std::size_t operator()(const ScheduleKey& k) const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(std::hash<std::string>{}(k.topology));
    mix(std::hash<std::string>{}(k.algorithm));
    for (const dc::u64 p : k.params) mix(p);
    mix(k.validate ? 1u : 0u);
    return static_cast<std::size_t>(h);
  }
};

/// Interface of a persistent schedule store the cache can fault entries in
/// from (and write new recordings through to). The mmap-backed
/// implementation lives in sim/schedule_store.hpp; the interface is
/// abstract so tests can substitute fakes. Both calls must be non-throwing:
/// a corrupt, stale or unwritable store degrades to the record path, never
/// into the run.
class ScheduleStoreBase {
 public:
  virtual ~ScheduleStoreBase() = default;
  /// Returns the persisted schedule for `key`, or nullptr when absent or
  /// rejected (bad magic/version/checksum, key mismatch, truncation).
  virtual std::shared_ptr<const Schedule> load(const ScheduleKey& key) = 0;
  /// Persists `s` under `key`; returns false on failure. Idempotent — an
  /// existing entry is left untouched (schedules are deterministic per
  /// key, and the key embeds the adjacency fingerprint, so an existing
  /// file is never stale for its own key).
  virtual bool save(const ScheduleKey& key, const Schedule& s) = 0;
};

/// Where a ScheduleCache::find() result came from.
enum class ScheduleOrigin {
  kMiss,    ///< nowhere — the caller records
  kMemory,  ///< the in-process cache
  kDisk,    ///< faulted in from the attached persistent store
};

/// Process-wide schedule registry with a memory budget. Lookups happen
/// once per algorithm run (not per cycle), so a mutex is plenty; entries
/// are shared_ptr-to-const, so concurrent replays never copy or mutate a
/// schedule — eviction only drops the cache's reference, replays in
/// flight keep theirs alive.
///
/// Budgeting: every entry is accounted at Schedule::byte_size() — which
/// for disk-loaded entries includes the full mmapped region — and when a
/// store pushes the total past the capacity, least-recently-used entries
/// are evicted until the total fits. The entry being stored is never
/// evicted on its own insert, even if it alone exceeds the capacity —
/// dropping it immediately would force an infinite record/re-record loop.
///
/// With a persistent store attached (attach_store), a find() miss faults
/// the entry in from disk before reporting a miss, and every publish is
/// written through. Disk hits are counted separately from in-memory hits:
/// `hits` keeps meaning "the schedule was already resident in this
/// process", so tests asserting an algorithm never touched the cache stay
/// meaningful under a warm store.
class ScheduleCache {
 public:
  /// Default capacity: 512 MiB — far above the whole test/bench suite's
  /// working set, so eviction only triggers when explicitly configured.
  static constexpr std::size_t kDefaultCapacityBytes =
      std::size_t{512} * 1024 * 1024;

  /// Point-in-time cache statistics.
  struct Stats {
    std::size_t entries = 0;         ///< schedules currently cached
    std::size_t bytes = 0;           ///< their accounted resident bytes
    std::size_t capacity_bytes = 0;  ///< the eviction threshold
    std::uint64_t hits = 0;          ///< find() hits served from memory
    std::uint64_t misses = 0;        ///< find() calls that returned nullptr
    std::uint64_t evictions = 0;     ///< entries dropped by the budget
    std::uint64_t disk_hits = 0;     ///< find() hits faulted in from the store
    std::uint64_t disk_misses = 0;   ///< store probes that found nothing usable
    std::uint64_t disk_bytes_mapped = 0;  ///< mmapped bytes faulted in
  };

  static ScheduleCache& instance() {
    static ScheduleCache cache;
    return cache;
  }

  std::shared_ptr<const Schedule> find(const ScheduleKey& key,
                                       ScheduleOrigin* origin = nullptr) {
    std::scoped_lock lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      if (origin) *origin = ScheduleOrigin::kMemory;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // mark most recent
      return it->second.schedule;
    }
    if (store_) {
      if (auto loaded = store_->load(key)) {
        ++disk_hits_;
        disk_bytes_mapped_ += loaded->mapped_bytes();
        if (origin) *origin = ScheduleOrigin::kDisk;
        return insert_locked(key, std::move(loaded), /*write_through=*/false);
      }
      ++disk_misses_;
    }
    ++misses_;
    if (origin) *origin = ScheduleOrigin::kMiss;
    return nullptr;
  }

  /// Publishes a schedule; if two recorders race on one key the first
  /// writer wins (both recorded the same deterministic plan). Returns the
  /// cached entry. With a persistent store attached the schedule is also
  /// written through (atomically; failures are silent — persistence is an
  /// optimization, never a correctness dependency).
  std::shared_ptr<const Schedule> store(const ScheduleKey& key,
                                        std::shared_ptr<const Schedule> s) {
    std::scoped_lock lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.schedule;
    }
    return insert_locked(key, std::move(s), /*write_through=*/true);
  }

  /// Attaches (or, with nullptr, detaches) the persistent backing store.
  void attach_store(std::shared_ptr<ScheduleStoreBase> store) {
    std::scoped_lock lock(mutex_);
    store_ = std::move(store);
  }

  bool has_store() const {
    std::scoped_lock lock(mutex_);
    return store_ != nullptr;
  }

  std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return map_.size();
  }

  Stats stats() const {
    std::scoped_lock lock(mutex_);
    Stats st;
    st.entries = map_.size();
    st.bytes = bytes_;
    st.capacity_bytes = capacity_;
    st.hits = hits_;
    st.misses = misses_;
    st.evictions = evictions_;
    st.disk_hits = disk_hits_;
    st.disk_misses = disk_misses_;
    st.disk_bytes_mapped = disk_bytes_mapped_;
    return st;
  }

  /// Sets the process-wide budget and evicts immediately if over it.
  void set_capacity_bytes(std::size_t capacity) {
    std::scoped_lock lock(mutex_);
    capacity_ = capacity;
    evict_over_capacity();
  }

  /// Drops every cached schedule and resets the statistics (tests use this
  /// to force re-recording). The capacity and any attached store are left
  /// as configured.
  void clear() {
    std::scoped_lock lock(mutex_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
    hits_ = misses_ = evictions_ = 0;
    disk_hits_ = disk_misses_ = disk_bytes_mapped_ = 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const Schedule> schedule;
    std::list<ScheduleKey>::iterator lru_it;
    std::size_t bytes = 0;
  };

  std::shared_ptr<const Schedule> insert_locked(
      const ScheduleKey& key, std::shared_ptr<const Schedule> s,
      bool write_through) {
    const std::size_t entry_bytes = s->byte_size();
    lru_.push_front(key);
    auto cached =
        map_.emplace(key, Entry{std::move(s), lru_.begin(), entry_bytes})
            .first->second.schedule;
    bytes_ += entry_bytes;
    evict_over_capacity();
    if (write_through && store_) store_->save(key, *cached);
    return cached;
  }

  void evict_over_capacity() {
    while (bytes_ > capacity_ && lru_.size() > 1) {
      const auto victim = map_.find(lru_.back());
      bytes_ -= victim->second.bytes;
      map_.erase(victim);
      lru_.pop_back();
      ++evictions_;
    }
  }

  mutable std::mutex mutex_;
  std::unordered_map<ScheduleKey, Entry, ScheduleKeyHash> map_;
  std::list<ScheduleKey> lru_;  ///< front = most recently used
  std::shared_ptr<ScheduleStoreBase> store_;
  std::size_t bytes_ = 0;
  std::size_t capacity_ = kDefaultCapacityBytes;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t disk_hits_ = 0;
  std::uint64_t disk_misses_ = 0;
  std::uint64_t disk_bytes_mapped_ = 0;
};

/// Records one oblivious run cycle by cycle into a single n-sized
/// destination scratch and compiles each cycle as the next one starts (the
/// last one at commit): compact when match_xor_form reproduces it exactly,
/// otherwise inverted into dense receiver-major arrays with the CSR slot of
/// every delivery resolved once. No per-cycle array survives recording.
/// The caller (ObliviousSection) guarantees every recorded cycle already
/// passed the interpreted path's validation before the next one starts, so
/// inversion cannot collide.
class ScheduleRecorder {
 public:
  explicit ScheduleRecorder(const net::FlatAdjacency& adj)
      : adj_(adj), dest_(static_cast<std::size_t>(adj.node_count()), kNoSend) {}

  /// Compiles the previous cycle, if any, and returns the scratch for the
  /// next cycle's destinations, pre-filled with kNoSend. The pointer is
  /// valid until the next new_cycle or commit call.
  net::NodeId* new_cycle() {
    compile_open_cycle();
    std::fill(dest_.begin(), dest_.end(), kNoSend);
    open_ = true;
    return dest_.data();
  }

  /// Compiles the last cycle and returns the schedule.
  std::shared_ptr<const Schedule> commit() && {
    compile_open_cycle();
    return std::make_shared<const Schedule>(std::move(cycles_));
  }

 private:
  void compile_open_cycle() {
    if (!open_) return;
    open_ = false;
    const std::size_t n = dest_.size();
    if (const auto form = match_xor_form(dest_.data(), n)) {
      cycles_.push_back(ScheduleCycle::compact(n, *form));
      return;
    }
    DC_CHECK(adj_.directed_edge_count() < kNoEdgeSlot,
             "edge count overflows the 32-bit schedule slot index");
    ScheduleCycle c;
    c.recv_from.assign(n, kNoSender);
    c.recv_slot.assign(n, kNoEdgeSlot);
    for (std::size_t u = 0; u < n; ++u) {
      const net::NodeId to = dest_[u];
      if (to == kNoSend) continue;
      const std::size_t v = static_cast<std::size_t>(to);
      DC_CHECK(v < n && c.recv_from[v] == kNoSender,
               "recorded cycle escaped validation");
      c.recv_from[v] = static_cast<net::NodeId>(u);
      const std::size_t slot = adj_.edge_slot(static_cast<net::NodeId>(u), to);
      if (slot != net::FlatAdjacency::npos) {
        c.recv_slot[v] = static_cast<std::uint32_t>(slot);
      }
      ++c.message_count;
    }
    cycles_.push_back(std::move(c));
  }

  const net::FlatAdjacency& adj_;
  std::vector<net::NodeId> dest_;
  bool open_ = false;
  std::vector<ScheduleCycle> cycles_;
};

}  // namespace dc::sim
