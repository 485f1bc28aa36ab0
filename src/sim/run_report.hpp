// Structured run reports: one JSON document per dcsim run that carries
// everything needed to answer "what did this run cost and why" after the
// process is gone — final Counters (plus the sharded engine's virtual
// booking), the critical-path profile from sim/profile.hpp, the imbalance
// summary, the hottest edges, the fault/recovery section with the active
// FaultTimeline epoch snapshot, ScheduleCache/store statistics, and a
// flight-recorder tail of the newest trace events per worker slot.
//
// The report doubles as the crash forensics format: dcsim writes it on
// SimError/FaultError and on recovery exhaustion, not just on demand
// (--report=FILE.json), so the flight recorder is always on (a small
// TraceRecorder rides along even without --trace).
//
// Determinism contract (pinned by kReportSchemaVersion and the golden
// test in tests/profile_test.cpp): every field except `wall_seconds` is a
// deterministic function of (topology, algorithm, seed, flags) — logical
// clocks, band-partitioned imbalance, name-sorted maps. Same seed and
// DC_THREADS produce a byte-identical report modulo that one field;
// the band partition makes everything but scheduling-order-dependent
// flight *content* independent of DC_THREADS too.
// `check_bench_json.py report-validate` enforces the schema, the
// phase-total ≡ Counters reconciliation, and the imbalance bounds in CI.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/counters.hpp"
#include "sim/profile.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"

namespace dc::sim {

/// Bumped whenever a field is added, removed or re-ordered; report-validate
/// pins the version it understands.
inline constexpr std::uint32_t kReportSchemaVersion = 1;

/// Events kept in the report's flight-recorder tail. The rings may retain
/// more (with --trace they hold tens of thousands); the report keeps the
/// newest slice so crash documents stay readable.
inline constexpr std::size_t kFlightDumpCap = 512;

/// Fault & recovery section: final fault counters, retry/replan totals
/// from the RecoveryDriver, and the epoch layout of the active
/// FaultTimeline (epoch start cycles plus the epoch the run ended in).
struct ReportFault {
  bool active = false;
  std::uint64_t epochs = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t retries = 0;
  std::uint64_t replans = 0;
  std::uint64_t backoff_cycles = 0;
  std::uint64_t current_epoch = 0;
  std::vector<std::uint64_t> epoch_starts;
};

struct RunReport {
  std::string algo;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  /// "ok" | "sim_error" | "fault_error" | "rejected" (refused before it
  /// ran: a bad flag combination, spec or budget; dcsim exits 2)
  std::string status = "ok";
  std::string error;  ///< exception message or refusal line when status != ok

  Counters counters;
  bool has_virtual = false;  ///< sharded runs: engine virtual booking
  Counters virtual_counters;

  bool profiled = false;  ///< --profile: tracks + imbalance are populated
  Profile profile;
  /// Track labels whose cycle totals reconcile against `counters`
  /// (the measured machine; shard0 for sharded runs). report-validate
  /// asserts sum(reconciled totals) + virtual comm cycles ==
  /// counters.comm_cycles whenever no events were dropped.
  std::vector<std::string> reconciled;

  bool has_imbalance = false;
  ImbalanceSummary imbalance;
  std::vector<HotEdge> hot_edges;

  ReportFault fault;
  ScheduleCache::Stats cache;

  std::uint64_t flight_dropped = 0;
  std::vector<TraceEvent> flight;  ///< newest-last logical order

  /// The single nondeterministic field.
  double wall_seconds = 0.0;
};

/// Fills the profile/flight sections from a recorder: critical-path
/// attribution over every track, plus the newest-events tail (capped at
/// kFlightDumpCap so --trace-sized rings don't bloat the report).
inline void fill_from_recorder(RunReport& r, const TraceRecorder& rec) {
  r.profile = build_profile(rec);
  std::vector<TraceEvent> events = rec.merged();
  if (events.size() > kFlightDumpCap)
    events.erase(events.begin(),
                 events.end() - static_cast<long>(kFlightDumpCap));
  r.flight = std::move(events);
  r.flight_dropped = rec.dropped();
}

namespace detail {

inline void report_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

inline void report_counters(std::ostream& os, const Counters& c) {
  os << "{\"comm_cycles\":" << c.comm_cycles
     << ",\"comp_steps\":" << c.comp_steps << ",\"messages\":" << c.messages
     << ",\"ops\":" << c.ops << ",\"messages_lost\":" << c.messages_lost
     << ",\"messages_rerouted\":" << c.messages_rerouted
     << ",\"fault_cycles\":" << c.fault_cycles << "}";
}

}  // namespace detail

/// Serializes the report. Field order is fixed; wall_seconds is the only
/// nondeterministic value (golden tests zero it before comparing).
inline void write_report_json(std::ostream& os, const RunReport& r) {
  os << "{\"schema_version\":" << kReportSchemaVersion
     << ",\"tool\":\"dcsim\",\"algo\":\"";
  detail::report_escape(os, r.algo);
  os << "\",\"n\":" << r.n << ",\"seed\":" << r.seed << ",\"status\":\"";
  detail::report_escape(os, r.status);
  os << "\",\"error\":\"";
  detail::report_escape(os, r.error);
  os << "\",\"wall_seconds\":" << r.wall_seconds;

  os << ",\"counters\":";
  detail::report_counters(os, r.counters);
  os << ",\"virtual_counters\":";
  if (r.has_virtual) {
    detail::report_counters(os, r.virtual_counters);
  } else {
    os << "null";
  }

  os << ",\"profile\":";
  if (r.profiled) {
    os << "{\"dropped_events\":" << r.profile.dropped_events
       << ",\"complete\":" << (r.profile.complete ? "true" : "false")
       << ",\"tracks\":[";
    for (std::size_t t = 0; t < r.profile.tracks.size(); ++t) {
      const TrackProfile& track = r.profile.tracks[t];
      bool reconciled = false;
      for (const std::string& label : r.reconciled)
        reconciled = reconciled || label == track.label;
      os << (t ? "," : "") << "{\"label\":\"";
      detail::report_escape(os, track.label);
      os << "\",\"reconciled\":" << (reconciled ? "true" : "false")
         << ",\"total_cycles\":" << track.total_cycles
         << ",\"total_messages\":" << track.total_messages << ",\"phases\":[";
      for (std::size_t i = 0; i < track.phases.size(); ++i) {
        const PhaseCost& ph = track.phases[i];
        os << (i ? "," : "") << "{\"name\":\"";
        detail::report_escape(os, ph.name);
        os << "\",\"cycles\":" << ph.cycles << ",\"messages\":" << ph.messages
           << "}";
      }
      os << "]}";
    }
    os << "]}";
  } else {
    os << "null";
  }

  os << ",\"imbalance\":";
  if (r.has_imbalance) {
    os << "{\"cycles\":" << r.imbalance.cycles
       << ",\"band_min\":" << r.imbalance.band_min
       << ",\"band_max\":" << r.imbalance.band_max
       << ",\"spread_max\":" << r.imbalance.spread_max
       << ",\"spread_sum\":" << r.imbalance.spread_sum
       << ",\"edge_load_max\":" << r.imbalance.edge_load_max
       << ",\"edge_load_delta\":" << r.imbalance.edge_load_delta << "}";
  } else {
    os << "null";
  }

  os << ",\"hot_edges\":[";
  for (std::size_t i = 0; i < r.hot_edges.size(); ++i) {
    os << (i ? "," : "") << "{\"u\":" << r.hot_edges[i].u
       << ",\"v\":" << r.hot_edges[i].v
       << ",\"load\":" << r.hot_edges[i].load << "}";
  }
  os << "]";

  os << ",\"fault\":{\"active\":" << (r.fault.active ? "true" : "false")
     << ",\"epochs\":" << r.fault.epochs << ",\"rejoins\":" << r.fault.rejoins
     << ",\"retries\":" << r.fault.retries
     << ",\"replans\":" << r.fault.replans
     << ",\"backoff_cycles\":" << r.fault.backoff_cycles
     << ",\"current_epoch\":" << r.fault.current_epoch
     << ",\"epoch_starts\":[";
  for (std::size_t i = 0; i < r.fault.epoch_starts.size(); ++i)
    os << (i ? "," : "") << r.fault.epoch_starts[i];
  os << "]}";

  os << ",\"schedule_cache\":{\"entries\":" << r.cache.entries
     << ",\"bytes\":" << r.cache.bytes << ",\"hits\":" << r.cache.hits
     << ",\"misses\":" << r.cache.misses
     << ",\"evictions\":" << r.cache.evictions
     << ",\"disk_hits\":" << r.cache.disk_hits
     << ",\"disk_misses\":" << r.cache.disk_misses
     << ",\"disk_bytes_mapped\":" << r.cache.disk_bytes_mapped << "}";

  os << ",\"flight_recorder\":{\"dropped_events\":" << r.flight_dropped
     << ",\"events\":[";
  for (std::size_t i = 0; i < r.flight.size(); ++i) {
    const TraceEvent& e = r.flight[i];
    os << (i ? "," : "") << "{\"name\":\"";
    detail::report_escape(os, e.name);
    os << "\",\"ph\":\"" << e.ph << "\",\"ts\":" << e.ts
       << ",\"track\":" << e.track << ",\"slot\":" << e.slot;
    if (e.arg_a_name != nullptr) {
      os << ",\"args\":{\"";
      detail::report_escape(os, e.arg_a_name);
      os << "\":" << e.arg_a;
      if (e.arg_b_name != nullptr) {
        os << ",\"";
        detail::report_escape(os, e.arg_b_name);
        os << "\":" << e.arg_b;
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}}\n";
}

inline std::string report_json(const RunReport& r) {
  std::ostringstream os;
  write_report_json(os, r);
  return os.str();
}

}  // namespace dc::sim
