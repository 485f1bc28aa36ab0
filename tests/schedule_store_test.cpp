// Persistent schedule store tests: the mmap on-disk format must
// round-trip byte-exactly, reject every flavor of damage gracefully
// (fall back to the record path, count a disk miss, never throw) — every
// truncation, every bit flip and every lying field included — share
// bytes across concurrent loaders, and stay inside the cache's LRU byte
// budget — with `hits` still meaning "resident in this process" so
// warm-store runs keep the PR 8 acceptance assertions meaningful.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/cube_prefix.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/ops.hpp"
#include "core/sequential.hpp"
#include "sim/machine.hpp"
#include "sim/oblivious.hpp"
#include "sim/schedule.hpp"
#include "sim/schedule_store.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"
#include "topology/hypercube.hpp"
#include "topology/recursive_dual_cube.hpp"

namespace dc::sim {
namespace {

class ScheduleStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScheduleCache::instance().clear();
    char tmpl[] = "/tmp/dcsched_test_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    ScheduleCache::instance().attach_store(nullptr);
    ScheduleCache::instance().clear();
    ScheduleCache::instance().set_capacity_bytes(
        ScheduleCache::kDefaultCapacityBytes);
    // Best-effort scrub of the temp dir.
    std::system(("rm -rf " + dir_).c_str());
  }

  std::string dir_;
};

Schedule small_schedule(std::size_t n, std::size_t cycles) {
  std::vector<ScheduleCycle> cyc(cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    cyc[c].recv_from.assign(n, kNoSender);
    cyc[c].recv_slot.assign(n, kNoEdgeSlot);
    // A deterministic non-trivial pattern: node v receives from v^1.
    for (std::size_t v = 0; v < n; ++v) {
      cyc[c].recv_from[v] = static_cast<net::NodeId>(v ^ 1);
      cyc[c].recv_slot[v] = static_cast<std::uint32_t>((v + c) % 7);
    }
    cyc[c].message_count = n;
  }
  return Schedule(std::move(cyc));
}

ScheduleKey small_key() {
  return ScheduleKey{"T#42", "probe", {3, 7}, true};
}

std::size_t file_size_of(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::size_t>(f.tellg()) : 0;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(f), {});
}

TEST_F(ScheduleStoreTest, RoundTripPreservesEveryArrayAndCount) {
  ScheduleStore store(dir_);
  ASSERT_TRUE(store.enabled());
  const auto key = small_key();
  const Schedule original = small_schedule(16, 5);
  ASSERT_TRUE(store.save(key, original));

  const auto loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->cycle_count(), original.cycle_count());
  EXPECT_GT(loaded->mapped_bytes(), 0u);
  for (std::size_t c = 0; c < original.cycle_count(); ++c) {
    const ScheduleCycle& a = original.cycle(c);
    const ScheduleCycle& b = loaded->cycle(c);
    EXPECT_TRUE(b.recv_from.borrowed()) << "loaded arrays must be views";
    ASSERT_EQ(a.recv_from.size(), b.recv_from.size());
    EXPECT_EQ(a.message_count, b.message_count);
    for (std::size_t v = 0; v < a.recv_from.size(); ++v) {
      EXPECT_EQ(a.recv_from[v], b.recv_from[v]);
      EXPECT_EQ(a.recv_slot[v], b.recv_slot[v]);
    }
  }
}

// Each cycle is stored in the form it has: compact cycles as their form,
// dense cycles as mapped views, interleaved in cycle order.
TEST_F(ScheduleStoreTest, MixedFormsRoundTripInTheirOwnForm) {
  const std::size_t n = 16;
  std::vector<ScheduleCycle> cycles;
  cycles.push_back(ScheduleCycle::compact(n, XorForm{8, 8, 0, 0, 0}));
  cycles.push_back(small_schedule(n, 1).cycle(0));
  cycles.push_back(ScheduleCycle::compact(n, XorForm{1, 4, 3, 8, 8}));
  cycles.push_back(small_schedule(n, 2).cycle(1));
  const Schedule original(std::move(cycles));
  const auto key = small_key();
  ScheduleStore store(dir_);
  ASSERT_TRUE(store.save(key, original));
  const auto loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->cycle_count(), original.cycle_count());
  for (std::size_t c = 0; c < original.cycle_count(); ++c) {
    const ScheduleCycle& a = original.cycle(c);
    const ScheduleCycle& b = loaded->cycle(c);
    EXPECT_EQ(b.is_compact(), c % 2 == 0);
    EXPECT_EQ(b.recv_from.borrowed(), c % 2 == 1) << "dense arrays are views";
    EXPECT_EQ(a.xor_form, b.xor_form);
    EXPECT_EQ(a.message_count, b.message_count);
    ASSERT_EQ(b.node_count(), n);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(a.sender(v), b.sender(v));
      EXPECT_EQ(a.edge_slot(v), b.edge_slot(v));
    }
  }
  EXPECT_EQ(ScheduleStore::encode(key, *loaded),
            ScheduleStore::encode(key, original));
}

TEST_F(ScheduleStoreTest, SerializationIsByteDeterministic) {
  const auto key = small_key();
  const Schedule s = small_schedule(8, 3);
  const auto once = ScheduleStore::encode(key, s);
  const auto twice = ScheduleStore::encode(key, s);
  ASSERT_FALSE(once.empty());
  EXPECT_EQ(once, twice);

  // And the on-disk file is exactly those bytes.
  ScheduleStore store(dir_);
  ASSERT_TRUE(store.save(key, s));
  const auto on_disk = slurp(store.entry_path(key));
  ASSERT_EQ(on_disk.size(), once.size());
  EXPECT_EQ(0, std::memcmp(on_disk.data(), once.data(), once.size()));
}

TEST_F(ScheduleStoreTest, SaveIsIdempotentAndAtomicallyVisible) {
  ScheduleStore store(dir_);
  const auto key = small_key();
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  const auto size_before = file_size_of(store.entry_path(key));
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  EXPECT_EQ(file_size_of(store.entry_path(key)), size_before);
  // No temp-file litter after committed saves.
  EXPECT_NE(std::system(("ls " + dir_ + "/*.tmp* >/dev/null 2>&1").c_str()),
            0);
}

TEST_F(ScheduleStoreTest, MissingFileIsAMissNotAnError) {
  ScheduleStore store(dir_);
  EXPECT_EQ(store.load(small_key()), nullptr);
}

TEST_F(ScheduleStoreTest, TruncatedFileIsRejected) {
  ScheduleStore store(dir_);
  const auto key = small_key();
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  const std::string path = store.entry_path(key);
  ASSERT_EQ(::truncate(path.c_str(), (long)file_size_of(path) - 4), 0);
  EXPECT_EQ(store.load(key), nullptr);
  ASSERT_EQ(::truncate(path.c_str(), 10), 0);  // shorter than the header
  EXPECT_EQ(store.load(key), nullptr);
}

TEST_F(ScheduleStoreTest, CorruptPayloadFailsTheChecksum) {
  ScheduleStore store(dir_);
  const auto key = small_key();
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  const std::string path = store.entry_path(key);
  auto bytes = slurp(path);
  bytes[bytes.size() - 1] ^= 0x5a;  // flip one payload byte
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_EQ(store.load(key), nullptr);
}

TEST_F(ScheduleStoreTest, WrongMagicAndWrongVersionAreRejected) {
  ScheduleStore store(dir_);
  const auto key = small_key();
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  const std::string path = store.entry_path(key);
  const auto pristine = slurp(path);

  auto bad_magic = pristine;
  bad_magic[0] = 'X';
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bad_magic.data(), static_cast<std::streamsize>(bad_magic.size()));
  EXPECT_EQ(store.load(key), nullptr);

  auto bad_version = pristine;
  bad_version[8] = 99;  // version field
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bad_version.data(),
             static_cast<std::streamsize>(bad_version.size()));
  EXPECT_EQ(store.load(key), nullptr);
}

TEST_F(ScheduleStoreTest, EmbeddedKeyMismatchIsRejected) {
  // A file renamed onto another key's path (hash collision, copied cache
  // dirs...) must be rejected by the embedded-key comparison — topology
  // fingerprint differences included, since the fingerprint lives in the
  // key's topology string.
  ScheduleStore store(dir_);
  const auto key = small_key();
  ScheduleKey other = key;
  other.topology = "T#43";  // same graph name, different fingerprint
  ASSERT_TRUE(store.save(key, small_schedule(8, 3)));
  ASSERT_EQ(::rename(store.entry_path(key).c_str(),
                     store.entry_path(other).c_str()),
            0);
  EXPECT_EQ(store.load(other), nullptr);

  // Same for every other key component.
  ScheduleKey wrong_params = key;
  wrong_params.params = {3, 8};
  ASSERT_EQ(::rename(store.entry_path(other).c_str(),
                     store.entry_path(wrong_params).c_str()),
            0);
  EXPECT_EQ(store.load(wrong_params), nullptr);
}

TEST_F(ScheduleStoreTest, UnusableDirectoryDisablesQuietly) {
  ScheduleStore store("/proc/definitely/not/writable");
  EXPECT_FALSE(store.enabled());
  EXPECT_EQ(store.load(small_key()), nullptr);
  EXPECT_FALSE(store.save(small_key(), small_schedule(4, 1)));
}

// ------------------------------------------------------ cache integration

TEST_F(ScheduleStoreTest, CacheFaultsInFromDiskAndCountsItSeparately) {
  auto store = attach_schedule_store(dir_);
  ASSERT_TRUE(store->enabled());
  auto& cache = ScheduleCache::instance();
  const auto key = small_key();

  // Publish through the cache: write-through to disk.
  cache.store(key, std::make_shared<const Schedule>(small_schedule(8, 3)));
  EXPECT_EQ(file_size_of(store->entry_path(key)) > 0, true);

  // Drop the in-memory copy; the next find must fault it in from disk
  // and report kDisk — with `hits` (memory hits) untouched.
  cache.clear();
  ScheduleOrigin origin = ScheduleOrigin::kMiss;
  const auto loaded = cache.find(key, &origin);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(origin, ScheduleOrigin::kDisk);
  auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u) << "a disk load is not an in-memory hit";
  EXPECT_EQ(st.misses, 0u) << "a disk load is not a miss either";
  EXPECT_EQ(st.disk_hits, 1u);
  EXPECT_GT(st.disk_bytes_mapped, 0u);

  // Once resident, the same key is a plain memory hit.
  origin = ScheduleOrigin::kMiss;
  ASSERT_NE(cache.find(key, &origin), nullptr);
  EXPECT_EQ(origin, ScheduleOrigin::kMemory);
  st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.disk_hits, 1u);

  // A key the store has never seen is a miss plus a disk miss.
  ScheduleKey absent = key;
  absent.algorithm = "absent";
  EXPECT_EQ(cache.find(absent), nullptr);
  st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.disk_misses, 1u);
}

TEST_F(ScheduleStoreTest, LruBudgetCoversMappedBytes) {
  auto store = attach_schedule_store(dir_);
  auto& cache = ScheduleCache::instance();
  const auto key = small_key();
  cache.store(key, std::make_shared<const Schedule>(small_schedule(64, 8)));
  cache.clear();

  const auto loaded = cache.find(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_GE(loaded->byte_size(), loaded->mapped_bytes())
      << "a mapped schedule's accounted bytes must include the mapping";
  EXPECT_GE(cache.stats().bytes, loaded->mapped_bytes());

  // Shrinking the budget below the mapping evicts the loaded entry (the
  // shared_ptr keeps the mapping alive for in-flight replays).
  ScheduleKey other = key;
  other.algorithm = "other";
  cache.store(other, std::make_shared<const Schedule>(small_schedule(64, 8)));
  cache.set_capacity_bytes(loaded->byte_size() / 2);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST_F(ScheduleStoreTest, ConcurrentLoadersShareOneEntry) {
  auto store = attach_schedule_store(dir_);
  auto& cache = ScheduleCache::instance();
  const auto key = small_key();
  cache.store(key, std::make_shared<const Schedule>(small_schedule(32, 4)));
  cache.clear();

  // Two loaders race the same key through the store (TSan covers the
  // interleavings); both must observe a usable schedule and the cache
  // must end up with exactly one entry.
  std::shared_ptr<const Schedule> got[2];
  std::thread a([&] { got[0] = cache.find(key); });
  std::thread b([&] { got[1] = cache.find(key); });
  a.join();
  b.join();
  ASSERT_NE(got[0], nullptr);
  ASSERT_NE(got[1], nullptr);
  EXPECT_EQ(got[0], got[1]) << "one mapping shared, not two";
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

// ------------------------------------------- lying arrays behind a good sum
//
// A DCSCHED1 file is outside input: its checksum only proves the bytes are
// the ones that were written. These files are written through save(), so
// every checksum holds, under the real key cube_prefix looks up on Q_3.

ScheduleKey cube_prefix_key(const net::Hypercube& q) {
  return ScheduleKey{ObliviousSection::topology_identity(q), "cube_prefix",
                     {q.dimensions()}, true};
}

// Records cube_prefix on `q` and returns a mutable dense copy of its
// cycles, built from the recorded senders with their CSR slots (the
// recording itself is compact), so the lies below are told in dense
// arrays.
std::vector<ScheduleCycle> recorded_cube_prefix(const net::Hypercube& q,
                                                const std::vector<u64>& data) {
  Machine m(q);
  m.set_schedule_path(SchedulePath::kCompiled);
  (void)core::cube_prefix(m, q, core::Plus<u64>{}, data, true);
  const auto s = ScheduleCache::instance().find(cube_prefix_key(q));
  EXPECT_NE(s, nullptr);
  const std::size_t n = q.node_count();
  std::vector<ScheduleCycle> cycles;
  for (std::size_t c = 0; s && c < s->cycle_count(); ++c) {
    const ScheduleCycle& recorded = s->cycle(c);
    ScheduleCycle dense;
    dense.recv_from.assign(n, kNoSender);
    dense.recv_slot.assign(n, kNoEdgeSlot);
    for (std::size_t v = 0; v < n; ++v) {
      const net::NodeId u = recorded.sender(v);
      if (u == kNoSender) continue;
      dense.recv_from[v] = u;
      dense.recv_slot[v] = static_cast<std::uint32_t>(
          q.flat_adjacency().edge_slot(u, static_cast<net::NodeId>(v)));
      ++dense.message_count;
    }
    EXPECT_EQ(dense.message_count, recorded.message_count);
    cycles.push_back(std::move(dense));
  }
  return cycles;
}

std::vector<u64> cube_data(const net::Hypercube& q) {
  std::vector<u64> data(q.node_count());
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 3 * i + 1;
  return data;
}

// Checks the store file now under `key` loads as a disk miss and that a
// compiled `run` on `t` (self-checking) records afresh instead of
// replaying it.
void expect_rejected_and_recorded(const std::string& dir,
                                  const ScheduleKey& key,
                                  const net::Topology& t,
                                  const std::function<void(Machine&)>& run) {
  ASSERT_EQ(ScheduleStore(dir).load(key), nullptr);
  ScheduleCache::instance().clear();
  attach_schedule_store(dir);
  Machine m(t);
  m.set_schedule_path(SchedulePath::kCompiled);
  run(m);
  EXPECT_EQ(m.replayed_cycles(), 0u) << "the section must record";
  const auto st = ScheduleCache::instance().stats();
  EXPECT_EQ(st.disk_hits, 0u);
  EXPECT_EQ(st.disk_misses, 1u);
}

// Saves `cycles` under cube_prefix's key, then checks them rejected and a
// cube_prefix run recorded afresh.
void expect_rejected_and_recorded(const std::string& dir,
                                  const net::Hypercube& q,
                                  std::vector<ScheduleCycle> cycles) {
  const auto key = cube_prefix_key(q);
  ScheduleStore store(dir);
  // save() leaves an existing file untouched; drop the previous case's.
  std::remove(store.entry_path(key).c_str());
  ASSERT_TRUE(store.save(key, Schedule(std::move(cycles))));
  expect_rejected_and_recorded(dir, key, q, [&q](Machine& m) {
    const auto data = cube_data(q);
    EXPECT_EQ(core::cube_prefix(m, q, core::Plus<u64>{}, data, true).prefix,
              core::seq_inclusive_scan(core::Plus<u64>{}, data));
  });
}

TEST_F(ScheduleStoreTest, OutOfRangeSenderLoadsAsAMiss) {
  const net::Hypercube q(3);
  const auto clean = recorded_cube_prefix(q, cube_data(q));
  ASSERT_EQ(clean.size(), q.dimensions());
  for (const net::NodeId bad : {net::NodeId{q.node_count()},
                                net::NodeId{1} << 40}) {
    SCOPED_TRACE(testing::Message() << "recv_from[0] = " << bad);
    auto cycles = clean;
    cycles[1].recv_from[0] = bad;
    expect_rejected_and_recorded(dir_, q, std::move(cycles));
  }
}

TEST_F(ScheduleStoreTest, MiscountedCycleLoadsAsAMiss) {
  const net::Hypercube q(3);
  auto cycles = recorded_cube_prefix(q, cube_data(q));
  ASSERT_EQ(cycles.size(), q.dimensions());
  ASSERT_EQ(cycles[2].message_count, q.node_count());
  cycles[2].message_count = q.node_count() - 1;
  expect_rejected_and_recorded(dir_, q, std::move(cycles));
}

// recv_slot is not checked on load — it is bounded where replay uses it:
// a slot past the edge count books off-CSR, like a non-edge hop, so the
// per-edge totals come out exactly as a clean replay's.
TEST_F(ScheduleStoreTest, LyingEdgeSlotBooksOffCsr) {
  const net::Hypercube q(3);
  const auto data = cube_data(q);
  auto cycles = recorded_cube_prefix(q, data);
  ASSERT_EQ(cycles.size(), q.dimensions());
  const auto edge_loads = [&](Machine& m) {
    std::vector<std::uint64_t> loads;
    for (net::NodeId u = 0; u < q.node_count(); ++u)
      for (const net::NodeId v : q.neighbors(u))
        loads.push_back(m.edge_load(u, v));
    return loads;
  };

  Machine clean(q);
  clean.set_schedule_path(SchedulePath::kCompiled);
  clean.enable_edge_load();
  (void)core::cube_prefix(clean, q, core::Plus<u64>{}, data, true);
  ASSERT_EQ(clean.replayed_cycles(), q.dimensions());

  const std::size_t edges = q.flat_adjacency().directed_edge_count();
  cycles[0].recv_slot[5] = static_cast<std::uint32_t>(edges);
  cycles[1].recv_slot[2] = 0xFFFFFFF0u;
  ScheduleStore store(dir_);
  ASSERT_TRUE(store.save(cube_prefix_key(q), Schedule(std::move(cycles))));
  ScheduleCache::instance().clear();
  attach_schedule_store(dir_);
  Machine lied(q);
  lied.set_schedule_path(SchedulePath::kCompiled);
  lied.enable_edge_load();
  EXPECT_EQ(core::cube_prefix(lied, q, core::Plus<u64>{}, data, true).prefix,
            core::seq_inclusive_scan(core::Plus<u64>{}, data));
  ASSERT_EQ(lied.replayed_cycles(), q.dimensions()) << "loaded and replayed";
  EXPECT_EQ(ScheduleCache::instance().stats().disk_hits, 1u);
  EXPECT_EQ(edge_loads(lied), edge_loads(clean));
  EXPECT_EQ(lied.counters(), clean.counters());
}

// ------------------------------------------- mutation loops over v2 files
//
// Recorded dual_prefix D_3 and dual_bitonic_network RD_3 files (every
// cycle compact) under every truncation, every single-bit flip, and every
// lying compact field behind a valid checksum must load as a miss — and a
// compiled run must then record afresh instead of replaying the lie.

struct RecordedFile {
  ScheduleKey key;
  std::vector<std::byte> bytes;     // the file as the record run wrote it
  std::shared_ptr<const Schedule> schedule;
  std::function<void(Machine&)> run;  // one compiled run, self-checking
  const net::Topology* topology = nullptr;
};

RecordedFile record_to_store(const std::string& dir, const net::Topology& t,
                             const std::string& algorithm,
                             std::vector<u64> params,
                             std::function<void(Machine&)> run) {
  RecordedFile f{{ObliviousSection::topology_identity(t), algorithm,
                  std::move(params), true},
                 {},
                 nullptr,
                 std::move(run),
                 &t};
  ScheduleCache::instance().clear();
  attach_schedule_store(dir);
  Machine m(t);
  m.set_schedule_path(SchedulePath::kCompiled);
  f.run(m);
  f.schedule = ScheduleCache::instance().find(f.key);
  EXPECT_NE(f.schedule, nullptr);
  ScheduleCache::instance().attach_store(nullptr);
  const auto raw = slurp(ScheduleStore(dir).entry_path(f.key));
  f.bytes.resize(raw.size());
  std::memcpy(f.bytes.data(), raw.data(), raw.size());
  return f;
}

RecordedFile recorded_dual_prefix(const std::string& dir,
                                  const net::DualCube& d) {
  return record_to_store(dir, d, "dual_prefix", {d.order()}, [&d](Machine& m) {
    std::vector<u64> data(d.node_count());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = 5 * i + 2;
    EXPECT_EQ(core::dual_prefix(m, d, core::Plus<u64>{}, data),
              core::seq_inclusive_scan(core::Plus<u64>{}, data));
  });
}

RecordedFile recorded_dual_sort(const std::string& dir,
                                const net::RecursiveDualCube& r) {
  return record_to_store(
      dir, r, "dual_bitonic_network", {r.order()}, [&r](Machine& m) {
        std::vector<u64> keys(r.node_count());
        for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = (i * 37) % 101;
        auto want = keys;
        std::sort(want.begin(), want.end());
        core::dual_sort(m, r, keys);
        EXPECT_EQ(keys, want);
      });
}

void write_file(const std::string& path, const std::byte* bytes,
                std::size_t size) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes),
             static_cast<std::streamsize>(size));
}

TEST_F(ScheduleStoreTest, RecordedFilesAreCompactAndRoundTrip) {
  const net::DualCube d(3);
  const net::RecursiveDualCube r(3);
  for (const RecordedFile& f :
       {recorded_dual_prefix(dir_, d), recorded_dual_sort(dir_, r)}) {
    SCOPED_TRACE(f.key.algorithm);
    ASSERT_NE(f.schedule, nullptr);
    for (const ScheduleCycle& c : f.schedule->cycles())
      EXPECT_TRUE(c.is_compact());
    EXPECT_EQ(ScheduleStore::encode(f.key, *f.schedule), f.bytes);
    const auto loaded = ScheduleStore(dir_).load(f.key);
    ASSERT_NE(loaded, nullptr);
    ASSERT_EQ(loaded->cycle_count(), f.schedule->cycle_count());
    for (std::size_t c = 0; c < loaded->cycle_count(); ++c) {
      EXPECT_EQ(loaded->cycle(c).xor_form, f.schedule->cycle(c).xor_form);
      EXPECT_EQ(loaded->cycle(c).message_count,
                f.schedule->cycle(c).message_count);
    }
  }
}

TEST_F(ScheduleStoreTest, EveryTruncationOfARecordedFileIsAMiss) {
  const net::DualCube d(3);
  const net::RecursiveDualCube r(3);
  for (const RecordedFile& f :
       {recorded_dual_prefix(dir_, d), recorded_dual_sort(dir_, r)}) {
    SCOPED_TRACE(f.key.algorithm);
    ScheduleStore store(dir_);
    const std::string path = store.entry_path(f.key);
    for (std::size_t len = 0; len < f.bytes.size(); ++len) {
      write_file(path, f.bytes.data(), len);
      ASSERT_EQ(store.load(f.key), nullptr) << "length " << len;
    }
    expect_rejected_and_recorded(dir_, f.key, *f.topology, f.run);
  }
}

TEST_F(ScheduleStoreTest, EveryBitFlipOfARecordedFileIsAMiss) {
  const net::DualCube d(3);
  const net::RecursiveDualCube r(3);
  for (const RecordedFile& f :
       {recorded_dual_prefix(dir_, d), recorded_dual_sort(dir_, r)}) {
    SCOPED_TRACE(f.key.algorithm);
    ScheduleStore store(dir_);
    const std::string path = store.entry_path(f.key);
    auto bytes = f.bytes;
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
      const std::byte mask{static_cast<unsigned char>(1u << (bit % 8))};
      bytes[bit / 8] ^= mask;
      write_file(path, bytes.data(), bytes.size());
      bytes[bit / 8] ^= mask;
      ASSERT_EQ(store.load(f.key), nullptr) << "bit " << bit;
    }
    expect_rejected_and_recorded(dir_, f.key, *f.topology, f.run);
  }
}

// Each compact field lies in turn, behind a valid checksum: written through
// save() of the recorded schedule with one cycle's form or count edited,
// and — for an unknown tag, which save() cannot write — by patching the
// tag word of an encode() image and resealing it.
TEST_F(ScheduleStoreTest, LyingCompactFieldsLoadAsAMissAndRecord) {
  const net::DualCube d(3);
  const net::RecursiveDualCube r(3);
  for (const RecordedFile& f :
       {recorded_dual_prefix(dir_, d), recorded_dual_sort(dir_, r)}) {
    SCOPED_TRACE(f.key.algorithm);
    const std::uint64_t n = f.topology->node_count();
    const std::size_t c = 1;  // the cycle that lies
    const ScheduleCycle& truth = f.schedule->cycle(c);
    ASSERT_TRUE(truth.is_compact());
    const XorForm form = *truth.xor_form;
    const auto with_form = [&](const XorForm& lie, std::uint64_t count) {
      std::vector<ScheduleCycle> cycles(f.schedule->cycles().begin(),
                                        f.schedule->cycles().end());
      cycles[c] = ScheduleCycle::compact(n, lie);
      cycles[c].message_count = count;
      return Schedule(std::move(cycles));
    };
    std::vector<std::pair<std::string, Schedule>> lies;
    const auto lie = [&](const std::string& what, XorForm bad) {
      lies.emplace_back(what, with_form(bad, truth.message_count));
    };
    XorForm bad = form;
    bad.mask0 = n;
    lie("mask0 = n", bad);
    bad = form;
    bad.mask1 = form.mask1 | (n << 5);
    lie("mask1 past n", bad);
    bad = form;
    bad.recv_mask = n;
    lie("p = n", bad);
    bad = form;
    bad.recv_match = form.recv_match | (std::uint64_t{1} << bits::lowest_set(
                                            ~form.recv_mask));
    lie("q outside p", bad);
    bad = form;
    bad.select = bits::log2_floor(n);  // 2n - 1 on D_n and RD_n
    lie("s = 2n - 1", bad);
    bad = form;
    bad.select = 64;
    lie("s = 64", bad);
    lies.emplace_back("message count + 1",
                      with_form(form, truth.message_count + 1));
    lies.emplace_back("message count - 1",
                      with_form(form, truth.message_count - 1));

    ScheduleStore store(dir_);
    for (auto& [what, schedule] : lies) {
      SCOPED_TRACE(what);
      std::remove(store.entry_path(f.key).c_str());
      ASSERT_TRUE(store.save(f.key, schedule));
      expect_rejected_and_recorded(dir_, f.key, *f.topology, f.run);
    }

    const std::size_t key_bytes = 8 * f.key.params.size() +
                                  f.key.topology.size() +
                                  f.key.algorithm.size();
    const std::size_t tag_at =
        64 + ((key_bytes + 7) & ~std::size_t{7}) + 56 * c;
    for (const std::uint64_t tag : {std::uint64_t{0}, std::uint64_t{3},
                                    ~std::uint64_t{0}}) {
      SCOPED_TRACE(testing::Message() << "tag " << tag);
      auto image = f.bytes;
      std::uint64_t was = 0;
      std::memcpy(&was, image.data() + tag_at, 8);
      ASSERT_EQ(was, ScheduleStore::kTagCompact);
      std::memcpy(image.data() + tag_at, &tag, 8);
      ScheduleStore::reseal(image);
      write_file(store.entry_path(f.key), image.data(), image.size());
      expect_rejected_and_recorded(dir_, f.key, *f.topology, f.run);
    }
  }
}

// ----------------------------------------------------- end-to-end replay

TEST_F(ScheduleStoreTest, WarmStoreSkipsRecordAndValidate) {
  const net::DualCube d(3);
  const core::Plus<u64> plus;
  Rng rng(7);
  std::vector<u64> data(d.node_count());
  for (auto& x : data) x = rng.below(1000);
  const auto expected = core::seq_inclusive_scan(plus, data);

  attach_schedule_store(dir_);

  // "Process 1": cold — records, validates, commits, writes through.
  {
    Machine m(d);
    m.set_schedule_path(SchedulePath::kCompiled);
    EXPECT_EQ(core::dual_prefix(m, d, plus, data), expected);
    EXPECT_EQ(m.replayed_cycles(), 0u);
  }

  // "Process 2": same store, empty in-process cache. Every cycle must
  // replay from the mapped schedule — zero record-and-validate passes.
  ScheduleCache::instance().clear();
  {
    Machine m(d);
    m.set_schedule_path(SchedulePath::kCompiled);
    EXPECT_EQ(core::dual_prefix(m, d, plus, data), expected);
    EXPECT_EQ(m.replayed_cycles(), m.counters().comm_cycles)
        << "warm start must replay every cycle";
    const auto st = ScheduleCache::instance().stats();
    EXPECT_GE(st.disk_hits, 1u);
    EXPECT_EQ(st.hits, 0u) << "nothing was resident before the load";
  }
}

}  // namespace
}  // namespace dc::sim
