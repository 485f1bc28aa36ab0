// Structured simulator tracing: ring-buffered events, deterministic export.
//
// The simulator's empirical surface used to be a handful of scalar counters
// plus a per-cycle message-count vector; there was no way to see *where*
// cycles go (record vs. replay vs. compute), when a schedule was compiled,
// or which messages a fault ate. The trace layer records all of that as
// TraceEvents and exports them as Chrome-trace / Perfetto JSON
// (chrome://tracing or https://ui.perfetto.dev) so a run becomes a
// zoomable timeline instead of a printout.
//
// Design constraints, in order:
//
//   * zero overhead when off — a machine with no recorder attached pays one
//     pointer test per instrumentation point and nothing else; nothing is
//     allocated, nothing is formatted.
//   * allocation-free when on — every per-worker-slot ring is sized and
//     allocated up front (the same pattern as EdgeLoadCounters); emitting
//     an event is a couple of stores into the calling slot's ring plus one
//     relaxed fetch_add on the logical clock. Event names are static
//     strings (or strings interned once per algorithm run, never per
//     cycle), so the steady-state comm path stays allocation-free with
//     tracing enabled or disabled (sim_test proves both with a counting
//     operator new).
//   * deterministic export — timestamps are *logical*: a monotone event
//     sequence number, not wall-clock time. All current instrumentation
//     points run on the machine's driver thread, so the same seed and
//     inputs produce byte-identical JSON regardless of worker count; the
//     per-slot rings exist so future worker-side events (per-chunk spans)
//     can be added without a lock, at the cost of only multiset — not
//     byte — determinism.
//
// Event taxonomy (docs/MODEL.md "Observability" lists args and units):
//
//   spans ('B'/'E')   comm_cycle, comm_cycle_replay_blocks, comm_cycle_fused
//                     record:<algo> / replay:<algo> / interp:<algo>
//                     (ObliviousSection lifetime), phase:<name> (TraceScope)
//   instants ('i')    compute_step, fault_drop, fault_cycle, fault_detour,
//                     schedule_cache_hit, schedule_cache_miss,
//                     schedule_commit
//
// One TraceRecorder can be shared by several machines (dcsim attaches the
// same recorder to the warm-up machine and the measured machine, so the
// record and replay phases land on separate tracks of one timeline); each
// machine registers a track (Chrome "pid") at attach time. Emission is
// only thread-safe across *slots* — the usual contract that one thread
// drives a machine holds per recorder.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace dc::sim {

/// Classifies events beyond the Chrome phase so queries (e.g. the
/// messages_per_cycle compatibility view) need no name comparisons.
enum class TraceEventKind : std::uint8_t {
  kGeneric = 0,
  kCycleEnd = 1,  ///< end of a comm cycle; arg_a = messages delivered
};

/// One trace record. Plain data, trivially copyable; name/arg-name strings
/// must outlive the recorder (string literals or TraceRecorder::intern).
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_a_name = nullptr;  ///< nullptr = no args at all
  const char* arg_b_name = nullptr;  ///< nullptr = single arg
  std::uint64_t ts = 0;              ///< logical time (event sequence)
  std::uint64_t arg_a = 0;
  std::uint64_t arg_b = 0;
  std::uint32_t track = 0;           ///< Chrome pid: one per machine
  std::uint32_t slot = 0;            ///< Chrome tid: emitting worker slot
  char ph = 'i';                     ///< 'B' | 'E' | 'i'
  TraceEventKind kind = TraceEventKind::kGeneric;
};

namespace detail {

/// Fixed-capacity ring of events, written by exactly one thread (the slot's
/// owner). When full it wraps, keeping the most recent events; the export
/// reports how many were dropped.
class TraceRing {
 public:
  void init(std::size_t capacity) {
    events_.assign(capacity, TraceEvent{});
    next_ = 0;
    emitted_ = 0;
  }

  void push(const TraceEvent& e) {
    events_[next_] = e;
    ++next_;
    if (next_ == events_.size()) next_ = 0;
    ++emitted_;
  }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t retained() const {
    return std::min<std::uint64_t>(emitted_, events_.size());
  }

  /// Appends the retained events (any order; callers sort by ts).
  void collect(std::vector<TraceEvent>& out) const {
    const std::uint64_t keep = retained();
    for (std::uint64_t i = 0; i < keep; ++i) {
      out.push_back(events_[(next_ + events_.size() - 1 - i) %
                            events_.size()]);
    }
  }

 private:
  std::vector<TraceEvent> events_;
  std::size_t next_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace detail

class TraceRecorder {
 public:
  /// Events kept per caller ring (slot 0 — where all current
  /// instrumentation lands) and per worker ring.
  static constexpr std::size_t kDefaultCallerCapacity = std::size_t{1} << 15;
  static constexpr std::size_t kDefaultWorkerCapacity = std::size_t{1} << 10;

  /// `worker_slots` must cover every slot that may emit (pool size + 1,
  /// like EdgeLoadCounters). All ring memory is allocated here, up front.
  explicit TraceRecorder(std::size_t worker_slots,
                         std::size_t caller_capacity = kDefaultCallerCapacity,
                         std::size_t worker_capacity = kDefaultWorkerCapacity)
      : rings_(worker_slots == 0 ? 1 : worker_slots) {
    rings_[0].init(caller_capacity);
    for (std::size_t s = 1; s < rings_.size(); ++s)
      rings_[s].init(worker_capacity);
  }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Registers a timeline track (Chrome pid) labelled `label` — one per
  /// attached machine, in attach order. Not hot; takes the intern mutex.
  std::uint32_t register_track(std::string label) {
    std::scoped_lock lock(mutex_);
    tracks_.push_back(std::move(label));
    return static_cast<std::uint32_t>(tracks_.size() - 1);
  }

  /// Labels of every registered track, in track (pid) order. Drives the
  /// profile/report layer (sim/profile.hpp) — the track index of any
  /// TraceEvent indexes this vector.
  std::vector<std::string> track_labels() const {
    std::scoped_lock lock(mutex_);
    return tracks_;
  }

  /// Copies `s` into recorder-owned storage and returns a stable pointer.
  /// For names built at algorithm-run granularity (e.g. "replay:dual_sort");
  /// never call per cycle. Repeated strings share one copy.
  const char* intern(std::string_view s) {
    std::scoped_lock lock(mutex_);
    for (const std::string& have : interned_) {
      if (have == s) return have.c_str();
    }
    interned_.emplace_back(s);
    return interned_.back().c_str();
  }

  // --- emission (allocation-free; one writer per slot) -------------------

  void begin(std::uint32_t track, std::size_t slot, const char* name,
             const char* arg_name = nullptr, std::uint64_t arg = 0) {
    emit(track, slot, 'B', TraceEventKind::kGeneric, name, arg_name, arg);
  }
  void end(std::uint32_t track, std::size_t slot, const char* name,
           const char* arg_name = nullptr, std::uint64_t arg = 0) {
    emit(track, slot, 'E', TraceEventKind::kGeneric, name, arg_name, arg);
  }
  /// End of a comm cycle: an 'E' additionally tagged so per-cycle message
  /// counts can be queried back without string matching.
  void end_cycle(std::uint32_t track, std::size_t slot, const char* name,
                 std::uint64_t messages) {
    emit(track, slot, 'E', TraceEventKind::kCycleEnd, name, "messages",
         messages);
  }
  void instant(std::uint32_t track, std::size_t slot, const char* name,
               const char* arg_a_name = nullptr, std::uint64_t arg_a = 0,
               const char* arg_b_name = nullptr, std::uint64_t arg_b = 0) {
    emit(track, slot, 'i', TraceEventKind::kGeneric, name, arg_a_name, arg_a,
         arg_b_name, arg_b);
  }

  // --- queries (call only between steps, like Machine::counters) ---------

  std::uint64_t emitted() const {
    std::uint64_t total = 0;
    for (const auto& r : rings_) total += r.emitted();
    return total;
  }
  std::uint64_t dropped() const {
    std::uint64_t lost = 0;
    for (const auto& r : rings_) lost += r.emitted() - r.retained();
    return lost;
  }

  /// All retained events merged across slots, sorted by logical time.
  /// Timestamps are unique (one clock tick per event), so the order is a
  /// deterministic total order.
  std::vector<TraceEvent> merged() const {
    std::vector<TraceEvent> out;
    std::uint64_t keep = 0;
    for (const auto& r : rings_) keep += r.retained();
    out.reserve(keep);
    for (const auto& r : rings_) r.collect(out);
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.ts < b.ts;
              });
    return out;
  }

  /// Compatibility view backing Machine::messages_per_cycle(): the
  /// delivered-message count of every retained comm cycle on `track`, in
  /// cycle order. Complete only while dropped() == 0.
  std::vector<std::uint64_t> messages_per_cycle(std::uint32_t track) const {
    std::vector<std::uint64_t> counts;
    for (const TraceEvent& e : merged()) {
      if (e.kind == TraceEventKind::kCycleEnd && e.track == track)
        counts.push_back(e.arg_a);
    }
    return counts;
  }

  /// Writes the whole trace as Chrome-trace / Perfetto JSON. Logical
  /// timestamps are emitted as microseconds (1 event = 1 us) purely so the
  /// viewers render sensible proportions.
  void write_json(std::ostream& os) const {
    const auto events = merged();
    os << "{\"traceEvents\":[";
    bool first = true;
    {
      std::scoped_lock lock(mutex_);
      for (std::size_t pid = 0; pid < tracks_.size(); ++pid) {
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":\"";
        write_escaped(os, tracks_[pid]);
        os << "\"}}";
      }
    }
    for (const TraceEvent& e : events) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"";
      write_escaped(os, e.name);
      os << "\",\"cat\":\"sim\",\"ph\":\"" << e.ph << "\"";
      if (e.ph == 'i') os << ",\"s\":\"t\"";
      os << ",\"pid\":" << e.track << ",\"tid\":" << e.slot
         << ",\"ts\":" << e.ts;
      if (e.arg_a_name != nullptr) {
        os << ",\"args\":{\"";
        write_escaped(os, e.arg_a_name);
        os << "\":" << e.arg_a;
        if (e.arg_b_name != nullptr) {
          os << ",\"";
          write_escaped(os, e.arg_b_name);
          os << "\":" << e.arg_b;
        }
        os << "}";
      }
      os << "}";
    }
    os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"clock\":\"logical-event-sequence\",\"dropped_events\":"
       << dropped() << "}}\n";
  }

  std::string json() const {
    std::ostringstream os;
    write_json(os);
    return os.str();
  }

 private:
  void emit(std::uint32_t track, std::size_t slot, char ph,
            TraceEventKind kind, const char* name,
            const char* arg_a_name = nullptr, std::uint64_t arg_a = 0,
            const char* arg_b_name = nullptr, std::uint64_t arg_b = 0) {
    DC_CHECK(slot < rings_.size(),
             "trace emission from a worker slot the recorder was not sized "
             "for");
    TraceEvent e;
    e.name = name;
    e.arg_a_name = arg_a_name;
    e.arg_b_name = arg_b_name;
    e.ts = clock_.fetch_add(1, std::memory_order_relaxed);
    e.arg_a = arg_a;
    e.arg_b = arg_b;
    e.track = track;
    e.slot = static_cast<std::uint32_t>(slot);
    e.ph = ph;
    e.kind = kind;
    rings_[slot].push(e);
  }

  static void write_escaped(std::ostream& os, std::string_view s) {
    for (const char c : s) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
  }

  std::vector<detail::TraceRing> rings_;
  std::atomic<std::uint64_t> clock_{0};
  mutable std::mutex mutex_;  // guards tracks_ and interned_
  std::vector<std::string> tracks_;
  std::deque<std::string> interned_;  // deque: stable c_str() across growth
};

/// RAII phase span: begins "phase:<name>" on construction, ends it on
/// destruction. Inert when `rec` is null, so call sites need no branching:
///
///   TraceScope phase(m.trace(), m.trace_track(), "phase:repair");
///
/// `name` must outlive the recorder (literal or interned).
class TraceScope {
 public:
  TraceScope(TraceRecorder* rec, std::uint32_t track, const char* name)
      : rec_(rec), track_(track), name_(name) {
    if (rec_) rec_->begin(track_, 0, name_);
  }
  ~TraceScope() {
    if (rec_) rec_->end(track_, 0, name_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRecorder* rec_;
  std::uint32_t track_;
  const char* name_;
};

}  // namespace dc::sim
