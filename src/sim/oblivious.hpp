// ObliviousSection — the driver oblivious algorithms route their
// communication through. One section covers one algorithm run; every
// comm cycle goes through exchange_blocks(width, dest_of, src), where
// dest_of depends only on the topology and the cycle index (that is what
// makes the algorithm oblivious) and src reads the data to ship: a strided
// PlaneSrc or a src(u, dst) callback. exchange(dest_of, payload_of) is its
// width-1 form for one value per message.
//
// The section picks the execution path once, at construction:
//
//   * interpreted (Machine::schedule_path() == kInterpreted) — every
//     exchange is a plain comm_cycle of sender ids; nothing is recorded or
//     cached.
//   * record (compiled path, cache miss) — every exchange still runs
//     through comm_cycle, so validation, SimError messages, counters,
//     traces and edge loads are byte-identical to the interpreted path,
//     but the destinations are captured as they are planned, into the
//     recorder's one n-sized scratch. Each cycle is compiled when the next
//     one starts — to its six-word XOR-mask form when that reproduces it
//     exactly, to dense receiver arrays otherwise — and commit() compiles
//     the last one and publishes the schedule; a run that throws never
//     commits, so invalid plans are never cached.
//   * replay (compiled path, cache hit) — exchange_blocks skips dest_of
//     entirely and calls Machine::comm_cycle_scheduled_blocks: one pass of
//     block copies (a dense cycle: one gather), no validation, no claims
//     (see sim/schedule.hpp).
//   * proxy (a sim::ProxyScope is open on the machine) — every exchange is
//     one detour batch of sender ids between the live proxies of its
//     logical endpoints (ProxyScope::exchange_blocks, in
//     sim/fault_transport.hpp), so any oblivious algorithm runs exactly
//     under a static fault set. No cache lookup, no recording and no
//     section span: each exchange traces its own phase:ft_exchange span.
//
// Replay gathers each receiver's row from its recorded sender; the other
// paths ship sender ids and then copy each delivered row from that
// sender's source (Machine::pack_blocks) — the same rows every way.
//
// On replay, an exchange step that one computation step consumes at once —
// a single exchange, or a relayed dimension step's three cycles — may also
// run fused (exchange_compute_fused): the algorithm's own sweep moves the
// data and combines in one pass, and the machine books each of the k
// compiled cycles it stands in for exactly as its replay would, then the
// compute step.
//
// Replay is only correct because the recorded plan is a pure function of
// (topology, algorithm, params): the cache key carries all three plus the
// machine's validation flag, and the topology identity includes the
// adjacency fingerprint so same-named graphs with different edges can
// never share a schedule.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault_transport.hpp"
#include "sim/machine.hpp"
#include "sim/schedule.hpp"

namespace dc::sim {

class ObliviousSection {
 public:
  /// Opens a section for `algorithm` with schedule-relevant `params` (any
  /// inputs the destination pattern depends on: order, dimension, root...).
  ObliviousSection(Machine& m, std::string algorithm,
                   std::vector<dc::u64> params)
      : m_(m), proxy_(m.proxy_scope()) {
    if (proxy_) return;
    const bool interpreted =
        m_.schedule_path() == SchedulePath::kInterpreted;
    if (!interpreted) {
      key_ = ScheduleKey{topology_identity(m_.topology()),
                         std::move(algorithm), std::move(params),
                         m_.validating()};
      replay_ = ScheduleCache::instance().find(key_, &origin_);
      if (!replay_) {
        recorder_ = std::make_unique<ScheduleRecorder>(
            m_.topology().flat_adjacency());
      }
    }
    // The section's lifetime is one span on the machine's trace, named by
    // the path it picked ("interp:" / "record:" / "load:" / "replay:" +
    // algorithm — "load:" marks a replay whose schedule was faulted in
    // from the persistent store rather than already resident). The name is
    // interned once per section — algorithm-run granularity, never per
    // cycle — so traced cycles inside stay allocation-free.
    if (TraceRecorder* rec = m_.trace()) {
      const std::string& algo = interpreted ? algorithm : key_.algorithm;
      const char* mode = interpreted ? "interp:"
                         : !replay_  ? "record:"
                         : origin_ == ScheduleOrigin::kDisk ? "load:"
                                                            : "replay:";
      span_name_ = rec->intern(std::string(mode) + algo);
      rec->begin(m_.trace_track(), 0, span_name_);
      if (!interpreted) {
        rec->instant(m_.trace_track(), 0,
                     replay_ ? "schedule_cache_hit" : "schedule_cache_miss");
        if (origin_ == ScheduleOrigin::kDisk) {
          rec->instant(m_.trace_track(), 0, "schedule_load", "cycles",
                       replay_->cycle_count());
        }
      }
    }
  }

  ~ObliviousSection() {
    if (span_name_ && m_.trace())
      m_.trace()->end(m_.trace_track(), 0, span_name_);
  }

  ObliviousSection(const ObliviousSection&) = delete;
  ObliviousSection& operator=(const ObliviousSection&) = delete;

  /// True iff this section replays a cached compiled schedule.
  bool replaying() const { return replay_ != nullptr; }

  /// Where the replayed schedule came from (kMiss while recording).
  ScheduleOrigin origin() const { return origin_; }

  /// The compiled schedule this section replays, or nullptr when
  /// recording/interpreting. Fusion drivers use this to line two sections'
  /// cycle arrays up for the static port-conflict check.
  std::shared_ptr<const Schedule> schedule() const { return replay_; }

  const ScheduleKey& key() const { return key_; }

  /// One oblivious communication cycle. `dest_of(u)` returns the
  /// destination node or kNoSend; `payload_of(u)` the payload node u ships
  /// (P must be semiregular). This is the width-1 exchange_blocks: each
  /// payload travels as a one-element block, and `inbox.has(v)` /
  /// `*inbox.block(v)` read what node v received. payload_of is evaluated
  /// once per delivered message on every path; dest_of is not called at
  /// all when replaying.
  template <typename P, typename DestFn, typename PayloadFn>
  BlockInbox<P> exchange(DestFn&& dest_of, PayloadFn&& payload_of) {
    return exchange_blocks<P>(
        1, dest_of, [&](net::NodeId u, P* dst) { *dst = payload_of(u); });
  }

  /// One oblivious cycle whose every message is a fixed-width block of T
  /// (T must be semiregular). `src` names node u's outgoing `width`
  /// elements: a PlaneSrc descriptor, or a callback `src(u, dst)` that
  /// writes them into dst. On replay this is a single SoA plane pass
  /// (Machine::comm_cycle_scheduled_blocks — block copies or memcpy-like
  /// strides, zero steady-state allocations). On the interpreted and
  /// record paths the cycle runs through Machine::comm_cycle with every
  /// sender shipping its own node id, so validation, SimError strings,
  /// counters, traces, edge loads and fault filtering are those of a plain
  /// comm_cycle (a record run also captures each destination as it is
  /// planned); then one packer (Machine::pack_blocks) copies each
  /// delivered row from its sender's source row — exactly the rows replay
  /// reads from each compiled cycle's senders. Machines with attached
  /// faults come through here on the interpreted path automatically
  /// (schedule_path() reports kInterpreted under faults). On the proxy
  /// path the sender ids travel one detour batch instead
  /// (ProxyScope::exchange_blocks).
  template <typename T, typename DestFn, typename Src>
  BlockInbox<T> exchange_blocks(std::size_t width, DestFn&& dest_of,
                                Src&& src) {
    if (replay_) {
      return m_.comm_cycle_scheduled_blocks<T>(next_cycles(1).front(), width,
                                               src);
    }
    if (proxy_) return proxy_->exchange_blocks<T>(width, dest_of, src);
    net::NodeId* const dest = recorder_ ? recorder_->new_cycle() : nullptr;
    const auto senders = m_.comm_cycle<net::NodeId>(
        [&](net::NodeId u) -> std::optional<Send<net::NodeId>> {
          const net::NodeId to = dest_of(u);
          if (dest) dest[static_cast<std::size_t>(u)] = to;
          if (to == kNoSend) return std::nullopt;
          return Send<net::NodeId>{to, u};
        });
    return m_.pack_blocks<T>(width, senders.data(), src);
  }

  /// Replay-only fused form of an exchange step that one computation step
  /// consumes at once: takes the next `cycles` compiled cycles (1 for a
  /// single exchange, 3 for a relayed dimension step) and runs
  /// body(b_lo, b_hi) over `blocks` equal node blocks through
  /// Machine::comm_compute_cycle_fused_blocks, which books those cycles and
  /// the step exactly as the replayed exchanges and their compute_step
  /// would. The body moves the data and combines itself, so every exchange
  /// must stay inside one block. Recording and interpreting sections keep
  /// exchange + compute_step.
  template <typename Body>
  void exchange_compute_fused(std::size_t cycles, std::size_t blocks,
                              Body&& body) {
    DC_REQUIRE(replay_ != nullptr,
               "fused exchange+compute cycles only replay compiled schedules");
    m_.comm_compute_cycle_fused_blocks(blocks, std::forward<Body>(body),
                                       next_cycles(cycles));
  }

  /// Compiles and publishes the recorded schedule. Call once, after the
  /// run's last cycle; no-op when interpreting or proxying. A replaying
  /// section checks instead that the run consumed every compiled cycle — an
  /// algorithm that issues fewer cycles than it recorded has diverged from
  /// its schedule.
  /// Skipping commit merely forfeits caching (and that check) — the run
  /// itself was already correct.
  void commit() {
    if (!recorder_) {
      DC_CHECK(!replay_ || next_cycle_ == replay_->cycle_count(),
               "algorithm issued fewer cycles than its compiled schedule");
      return;
    }
    // Cycles recorded while faults were attached may have observed
    // fault-dependent state (lost deliveries feed back into dest_of), so
    // they must never be published under the healthy topology's key. The
    // section can only get here if faults were attached mid-run —
    // schedule_path() already reports kInterpreted when a machine carries
    // faults at construction time.
    if (m_.has_faults()) {
      recorder_.reset();
      return;
    }
    replay_ = ScheduleCache::instance().store(key_,
                                              std::move(*recorder_).commit());
    recorder_.reset();
    if (TraceRecorder* rec = m_.trace()) {
      rec->instant(m_.trace_track(), 0, "schedule_commit", "cycles",
                   replay_ ? replay_->cycle_count() : 0);
    }
  }

  /// Topology identity used in schedule keys: the display name plus the
  /// adjacency fingerprint.
  static std::string topology_identity(const net::Topology& t) {
    return t.name() + "#" + std::to_string(t.flat_adjacency().fingerprint());
  }

 private:
  /// The next `k` compiled cycles at the replay cursor, advancing it.
  std::span<const ScheduleCycle> next_cycles(std::size_t k) {
    DC_CHECK(replay_->cycle_count() - next_cycle_ >= k,
             "algorithm issued more cycles than its compiled schedule");
    next_cycle_ += k;
    return replay_->cycles().subspan(next_cycle_ - k, k);
  }

  Machine& m_;
  ProxyScope* const proxy_;  // non-null: the proxy path, for the section
  ScheduleKey key_;
  ScheduleOrigin origin_ = ScheduleOrigin::kMiss;
  std::shared_ptr<const Schedule> replay_;
  // unique_ptr (not optional): record-mode-only state, and GCC 12's
  // -Wmaybe-uninitialized misfires on optional's inlined payload destructor.
  std::unique_ptr<ScheduleRecorder> recorder_;
  std::size_t next_cycle_ = 0;
  const char* span_name_ = nullptr;  // interned; non-null iff traced
};

}  // namespace dc::sim
