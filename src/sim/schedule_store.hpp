// Persistent, mmap-friendly schedule store: compiled schedules outlive the
// process that recorded them.
//
// A compiled schedule is already plain integers keyed by a pure function
// of (topology fingerprint, algorithm, params, validation flag) — nothing
// about it is process-specific. This store serializes each cache entry to
// its own file in a directory, one entry per key, each cycle in the form it
// already has, and loads them back as read-only memory mappings: a compact
// cycle is its six words, read into the ScheduleCycle, and a dense cycle's
// arrays are CycleArray views straight into the mapped file pages, so a
// load copies no array, the page cache shares the bytes across every
// process pointed at the same directory, and the first replay cycle faults
// pages in on demand.
//
// File layout (little-endian, version 2):
//
//   Header (64 bytes)
//     magic            char[8]   "DCSCHED1"
//     version          u32       kFormatVersion
//     flags            u32       bit 0: key.validate
//     node_count       u64
//     cycle_count      u64
//     params_count     u64
//     topology_len     u32       (bytes, unterminated)
//     algorithm_len    u32
//     payload_checksum u64       FNV-1a over bytes [64, file_size)
//     file_size        u64       total bytes; must equal st_size exactly
//   Payload
//     params           u64[params_count]
//     topology         char[topology_len]     \  the full key is embedded so
//     algorithm        char[algorithm_len]    /  filename collisions can
//     padding          to 8-byte alignment       never alias two keys
//     cycle table      cycle_count records of 7 x u64, in cycle order:
//                        tag            kTagDense or kTagCompact
//                        message_count
//                        mask0, mask1, select, recv_mask, recv_match
//                                       (the XorForm; zero when dense)
//     recv_from        u64[dense_count * node_count]  \  the dense cycles
//     recv_slot        u32[dense_count * node_count]  /  only, in order
//
// The filename is the 16-hex-digit FNV-1a of the canonical key encoding
// plus ".dcsched"; the embedded key is still verified byte-for-byte on
// load, so a hash collision (or a file renamed across machines) degrades
// to a miss, never to replaying the wrong plan. The topology string
// carries the FlatAdjacency fingerprint (see
// ObliviousSection::topology_identity), which is how staleness is ruled
// out: mutate the graph and the key — hence the filename and the embedded
// bytes — changes with it. A version-1 file (dense arrays only) is a miss
// by the version rule, and the record path rewrites it.
//
// Writes are atomic: serialize to an O_TMPFILE-style mkstemp sibling, then
// rename(2) over the final name. Readers either see the complete old file
// or the complete new one; a crashed writer leaves only a .tmp orphan that
// is never loaded. Saving is idempotent — an existing file for the key is
// left untouched (schedules are deterministic per key, so its content is
// already correct).
//
// Every failure path — unwritable directory, ENOENT, truncation, bad
// magic/version/flags/checksum, key mismatch, an unknown cycle tag, a dense
// recv_from entry that is no node or a message_count that miscounts its
// senders, a compact cycle whose form does not fit the node count (a mask
// or p that is no label, a q with a bit outside p, an s that is no label
// bit, a node count that is no power of two) or whose message_count is
// not node_count >> popcount(p), mmap failure — returns nullptr/false and
// never throws: persistence is an optimization; the record path is always
// behind it.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/schedule.hpp"

namespace dc::sim {

class ScheduleStore final : public ScheduleStoreBase {
 public:
  static constexpr char kMagic[8] = {'D', 'C', 'S', 'C', 'H', 'E', 'D', '1'};
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Opens (and creates, if needed) the store directory. A directory that
  /// cannot be created leaves the store disabled: loads miss, saves fail,
  /// nothing throws.
  explicit ScheduleStore(std::string directory) : dir_(std::move(directory)) {
    if (dir_.empty()) return;
    if (::mkdir(dir_.c_str(), 0777) == 0 || errno == EEXIST) enabled_ = true;
  }

  const std::string& directory() const { return dir_; }
  bool enabled() const { return enabled_; }

  std::shared_ptr<const Schedule> load(const ScheduleKey& key) override {
    if (!enabled_) return nullptr;
    const std::string path = entry_path(key);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    struct stat st{};
    if (::fstat(fd, &st) != 0 ||
        st.st_size < static_cast<::off_t>(kHeaderBytes)) {
      ::close(fd);
      return nullptr;
    }
    const std::size_t file_size = static_cast<std::size_t>(st.st_size);
    void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);  // the mapping keeps the file alive
    if (base == MAP_FAILED) return nullptr;
    auto schedule = decode(static_cast<const std::byte*>(base), file_size, key);
    if (!schedule) ::munmap(base, file_size);
    return schedule;
  }

  bool save(const ScheduleKey& key, const Schedule& s) override {
    if (!enabled_) return false;
    const std::string path = entry_path(key);
    if (::access(path.c_str(), F_OK) == 0) return true;  // idempotent
    const std::vector<std::byte> bytes = encode(key, s);
    if (bytes.empty()) return false;
    std::string tmp = path + ".tmpXXXXXX";
    const int fd = ::mkstemp(tmp.data());
    if (fd < 0) return false;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ::ssize_t n =
          ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      ::unlink(tmp.c_str());
      return false;
    }
    return true;
  }

  /// The file this key lives at (exposed so tests can corrupt/truncate it).
  std::string entry_path(const ScheduleKey& key) const {
    static constexpr char hex[] = "0123456789abcdef";
    std::uint64_t h = fnv1a(0xcbf29ce484222325ull, canonical_key(key));
    std::string name(16, '0');
    for (int i = 15; i >= 0; --i, h >>= 4)
      name[static_cast<std::size_t>(i)] = hex[h & 0xf];
    return dir_ + "/" + name + ".dcsched";
  }

  /// Serializes (without writing) — exposed for the round-trip byte-
  /// equality test. Each cycle is written in the form it has; a compact
  /// cycle's fields are written as they are (the loader checks them).
  static std::vector<std::byte> encode(const ScheduleKey& key,
                                       const Schedule& s) {
    static_assert(sizeof(net::NodeId) == 8,
                  "on-disk format assumes 64-bit node ids");
    const std::size_t cycles = s.cycle_count();
    const std::size_t n = cycles == 0 ? 0 : s.cycle(0).node_count();
    std::size_t dense = 0;
    for (const ScheduleCycle& c : s.cycles()) {
      // Ragged schedules (impossible today) would silently truncate —
      // refuse to serialize anything that does not round-trip exactly.
      if (c.node_count() != n) return {};
      if (c.is_compact()) continue;
      if (c.recv_slot.size() != n) return {};
      ++dense;
    }
    const std::size_t key_bytes =
        8 * key.params.size() + key.topology.size() + key.algorithm.size();
    const std::size_t payload_bytes =
        pad8(key_bytes) + kCycleRecordBytes * cycles + (8 + 4) * dense * n;
    std::vector<std::byte> out(kHeaderBytes + payload_bytes);
    std::byte* p = out.data();
    std::memcpy(p, kMagic, 8);
    put_u32(p + 8, kFormatVersion);
    put_u32(p + 12, key.validate ? 1u : 0u);
    put_u64(p + 16, n);
    put_u64(p + 24, cycles);
    put_u64(p + 32, key.params.size());
    put_u32(p + 40, static_cast<std::uint32_t>(key.topology.size()));
    put_u32(p + 44, static_cast<std::uint32_t>(key.algorithm.size()));
    put_u64(p + 56, out.size());
    std::byte* q = p + kHeaderBytes;
    for (const dc::u64 v : key.params) {
      put_u64(q, v);
      q += 8;
    }
    std::memcpy(q, key.topology.data(), key.topology.size());
    q += key.topology.size();
    std::memcpy(q, key.algorithm.data(), key.algorithm.size());
    q += key.algorithm.size();
    q = p + kHeaderBytes + pad8(key_bytes);  // zero padding already in place
    for (const ScheduleCycle& c : s.cycles()) {
      const XorForm f = c.xor_form.value_or(XorForm{});
      for (const std::uint64_t word :
           {c.is_compact() ? kTagCompact : kTagDense, c.message_count, f.mask0,
            f.mask1, f.select, f.recv_mask, f.recv_match}) {
        put_u64(q, word);
        q += 8;
      }
    }
    for (const ScheduleCycle& c : s.cycles()) {
      if (c.is_compact()) continue;
      std::memcpy(q, c.recv_from.data(), 8 * n);
      q += 8 * n;
    }
    for (const ScheduleCycle& c : s.cycles()) {
      if (c.is_compact()) continue;
      std::memcpy(q, c.recv_slot.data(), 4 * n);
      q += 4 * n;
    }
    put_u64(p + 48, payload_checksum(p + kHeaderBytes, payload_bytes));
    return out;
  }

  /// Recomputes the payload checksum of an encode() image in place —
  /// exposed so tests can write files that lie behind a valid checksum.
  static void reseal(std::vector<std::byte>& image) {
    if (image.size() < kHeaderBytes) return;
    put_u64(image.data() + 48, payload_checksum(image.data() + kHeaderBytes,
                                                image.size() - kHeaderBytes));
  }

  /// Cycle-table tags.
  static constexpr std::uint64_t kTagDense = 1;
  static constexpr std::uint64_t kTagCompact = 2;

 private:
  static constexpr std::size_t kHeaderBytes = 64;
  static constexpr std::size_t kCycleRecordBytes = 7 * 8;

  static std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

  static void put_u32(std::byte* p, std::uint32_t v) {
    std::memcpy(p, &v, 4);
  }
  static void put_u64(std::byte* p, std::uint64_t v) {
    std::memcpy(p, &v, 8);
  }
  static std::uint32_t get_u32(const std::byte* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }
  static std::uint64_t get_u64(const std::byte* p) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }

  static std::uint64_t fnv1a_bytes(std::uint64_t h, const std::byte* p,
                                   std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(std::to_integer<unsigned char>(p[i]));
      h *= 1099511628211ull;
    }
    return h;
  }
  static std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
    return fnv1a_bytes(h, reinterpret_cast<const std::byte*>(s.data()),
                       s.size());
  }

  /// Payload checksum: FNV-1a folded over little-endian u64 words plus a
  /// byte-wise tail. Every load verifies the whole mapped payload —
  /// multi-MB for big-machine schedules — so the word fold's ~8x
  /// throughput over the byte scan is warm-start latency, not polish.
  static std::uint64_t payload_checksum(const std::byte* p, std::size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      h ^= get_u64(p + i);
      h *= 1099511628211ull;
    }
    for (; i < n; ++i) {
      h ^= std::to_integer<unsigned char>(p[i]);
      h *= 1099511628211ull;
    }
    return h;
  }

  /// Canonical key encoding hashed into the filename. '\0' separators keep
  /// ("ab","c") and ("a","bc") apart; the embedded key check on load makes
  /// even a deliberate collision harmless.
  static std::string canonical_key(const ScheduleKey& key) {
    std::string s;
    s.reserve(key.topology.size() + key.algorithm.size() +
              8 * key.params.size() + 3);
    s += key.topology;
    s += '\0';
    s += key.algorithm;
    s += '\0';
    for (const dc::u64 p : key.params)
      for (int b = 0; b < 8; ++b) s += static_cast<char>((p >> (8 * b)) & 0xff);
    s += key.validate ? '\1' : '\0';
    return s;
  }

  /// Validates a mapped file and builds the view Schedule. Returns nullptr
  /// on any mismatch; on success the returned Schedule owns the mapping
  /// (takes over munmap).
  static std::shared_ptr<const Schedule> decode(const std::byte* p,
                                                std::size_t file_size,
                                                const ScheduleKey& key) {
    if (file_size < kHeaderBytes) return nullptr;
    if (std::memcmp(p, kMagic, 8) != 0) return nullptr;
    if (get_u32(p + 8) != kFormatVersion) return nullptr;
    const std::uint32_t flags = get_u32(p + 12);
    if ((flags & ~1u) != 0) return nullptr;  // no other flag is defined
    const bool validate = (flags & 1u) != 0;
    const std::uint64_t n = get_u64(p + 16);
    const std::uint64_t cycles = get_u64(p + 24);
    const std::uint64_t params_count = get_u64(p + 32);
    const std::uint32_t topology_len = get_u32(p + 40);
    const std::uint32_t algorithm_len = get_u32(p + 44);
    // Recompute the exact size from the counts before trusting any of
    // them; every count is corruption-controlled, so bound each term
    // against the real file size before multiplying (a cycle costs a
    // table record, a param 8 bytes, so anything larger than file_size is
    // a lie).
    if (cycles > file_size || params_count > file_size) return nullptr;
    const std::uint64_t key_bytes =
        8 * params_count + topology_len + algorithm_len;
    if (key_bytes > file_size) return nullptr;
    const std::uint64_t table_at = kHeaderBytes + pad8(key_bytes);
    if (table_at > file_size ||
        cycles > (file_size - table_at) / kCycleRecordBytes)
      return nullptr;
    const std::byte* table = p + table_at;
    std::uint64_t dense = 0;
    for (std::uint64_t c = 0; c < cycles; ++c) {
      const std::uint64_t tag = get_u64(table + kCycleRecordBytes * c);
      if (tag == kTagDense) {
        ++dense;
      } else if (tag != kTagCompact) {
        return nullptr;
      }
    }
    if (n != 0 && dense > ~std::uint64_t{0} / 12 / n) return nullptr;
    const std::uint64_t expected =
        table_at + kCycleRecordBytes * cycles + (8 + 4) * dense * n;
    if (expected != file_size || get_u64(p + 56) != file_size) return nullptr;
    if (get_u64(p + 48) !=
        payload_checksum(p + kHeaderBytes, file_size - kHeaderBytes))
      return nullptr;
    // Byte-exact key match: the file must describe precisely the schedule
    // asked for.
    if (validate != key.validate || params_count != key.params.size() ||
        topology_len != key.topology.size() ||
        algorithm_len != key.algorithm.size())
      return nullptr;
    const std::byte* q = p + kHeaderBytes;
    for (const dc::u64 v : key.params) {
      if (get_u64(q) != v) return nullptr;
      q += 8;
    }
    if (std::memcmp(q, key.topology.data(), topology_len) != 0) return nullptr;
    q += topology_len;
    if (std::memcmp(q, key.algorithm.data(), algorithm_len) != 0)
      return nullptr;

    const std::byte* from = table + kCycleRecordBytes * cycles;
    const std::byte* slot = from + 8 * dense * n;
    std::vector<ScheduleCycle> out(static_cast<std::size_t>(cycles));
    std::uint64_t d = 0;  // dense cycles decoded so far
    for (std::uint64_t c = 0; c < cycles; ++c) {
      const std::byte* rec = table + kCycleRecordBytes * c;
      ScheduleCycle& cyc = out[static_cast<std::size_t>(c)];
      const std::uint64_t message_count = get_u64(rec + 8);
      if (get_u64(rec) == kTagCompact) {
        // Replay computes senders from the form, so the form must fit the
        // node count: every sender it computes is then a node.
        const XorForm f{get_u64(rec + 16), get_u64(rec + 24),
                        get_u64(rec + 32), get_u64(rec + 40),
                        get_u64(rec + 48)};
        if (!f.fits(n) || message_count != f.message_count(n)) return nullptr;
        cyc = ScheduleCycle::compact(n, f);
        continue;
      }
      cyc.message_count = message_count;
      cyc.recv_from = CycleArray<net::NodeId>::view(
          reinterpret_cast<const net::NodeId*>(from + 8 * d * n),
          static_cast<std::size_t>(n));
      cyc.recv_slot = CycleArray<std::uint32_t>::view(
          reinterpret_cast<const std::uint32_t*>(slot + 4 * d * n),
          static_cast<std::size_t>(n));
      ++d;
      // Replay indexes source planes with recv_from, so a file whose
      // checksum holds must still name real senders, as many as it counts.
      // (recv_slot is bounded where it is used: Machine::book_edge.)
      const net::NodeId* senders = cyc.recv_from.data();
      std::uint64_t sending = 0;
      for (std::uint64_t v = 0; v < n; ++v) {
        if (senders[v] == kNoSender) continue;
        if (senders[v] >= n) return nullptr;
        ++sending;
      }
      if (sending != cyc.message_count) return nullptr;
    }
    std::shared_ptr<const void> mapping(
        static_cast<const void*>(p),
        [file_size](const void* base) {
          ::munmap(const_cast<void*>(base), file_size);
        });
    return std::make_shared<const Schedule>(std::move(out),
                                            std::move(mapping), file_size);
  }

  std::string dir_;
  bool enabled_ = false;
};

/// Attaches an mmap store at `directory` to the process-wide ScheduleCache
/// (replacing any previous store). Returns the store so callers can report
/// on it; returns nullptr (and detaches nothing) for an empty directory.
inline std::shared_ptr<ScheduleStore> attach_schedule_store(
    const std::string& directory) {
  if (directory.empty()) return nullptr;
  auto store = std::make_shared<ScheduleStore>(directory);
  ScheduleCache::instance().attach_store(store);
  return store;
}

}  // namespace dc::sim
