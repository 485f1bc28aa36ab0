// Cost-attribution profiling: where do the logical cycles go?
//
// The trace layer (sim/trace.hpp) records *events*; the metrics layer
// (sim/metrics.hpp) records *totals*. Neither answers the questions the
// paper's cost claims are about — which phase is on the critical path,
// which comm cycle is imbalanced, which edge is hot. This header closes
// that gap with three purely-analytical pieces:
//
//   * build_profile() — critical-path attribution. Replays the recorder's
//     merged event stream and charges every comm cycle (a kCycleEnd 'E')
//     to the innermost enclosing phase span on its track: "record:" /
//     "replay:" / "interp:" / "load:" / "fuse:" spans map to their
//     category, "phase:<x>" spans map to <x> (shard_exchange,
//     ft_exchange, repair, resilient_*...), anything else lands in
//     "(unattributed)". Per-track phase totals always sum to the track's
//     cycle total, and with zero dropped events the driving machine's
//     Counters::comm_cycles reconcile exactly against its track.
//
//   * CycleProfiler / CycleCostModel — per-cycle imbalance telemetry.
//     Receivers are partitioned into kImbalanceBands fixed, contiguous
//     bands (band(v) = v * bands / n — the same contiguous-share shape
//     the cache-aware chunk placement hands to workers). Band receive
//     counts are deterministic functions of the schedule, never of which
//     worker happened to deliver a chunk, so the telemetry — and the
//     fusion planner's cost model built on it — is byte-identical across
//     DC_THREADS. When the metrics registry is armed the per-cycle
//     min/median/max/spread land in sim.imbalance.* histograms.
//
//   * top_k_hot_edges() — deterministic hottest-edge ranking over one
//     EdgeLoadCounters::merged() snapshot (load desc, then edge id), used
//     by the dcsim run summary and tab_hotspot.
//
// Everything here is driver-thread-only analysis over immutable snapshots;
// nothing touches the comm hot path unless a profiler is attached, and an
// attached profiler costs one O(n) band scan per cycle on the driver
// thread (opt-in via dcsim --profile).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"
#include "topology/flat_adjacency.hpp"

namespace dc::sim {

/// Fixed receiver-band count for imbalance accounting. 16 matches the
/// largest worker pool the chunk placement targets while keeping per-cycle
/// summaries O(1) to reduce.
inline constexpr std::size_t kImbalanceBands = 16;

/// Bands actually used for an n-node cycle (every band non-empty).
inline std::size_t imbalance_band_count(std::size_t n) {
  if (n == 0) return 1;
  return n < kImbalanceBands ? n : kImbalanceBands;
}

/// The band of receiver v: contiguous shares, v * bands / n.
inline std::size_t imbalance_band_of(std::size_t v, std::size_t n,
                                     std::size_t bands) {
  return v * bands / n;
}

/// Per-cycle receive counts over the fixed band partition, reduced to the
/// order statistics the telemetry and the cost model consume.
struct BandStats {
  std::uint64_t min = 0;
  std::uint64_t median = 0;
  std::uint64_t max = 0;
  std::uint64_t spread() const { return max - min; }
};

namespace detail {

/// Receive counts per band of an n-node cycle whose receivers are the v
/// with receives(v).
template <typename F>
std::array<std::uint64_t, kImbalanceBands> band_counts(std::size_t n,
                                                       F&& receives) {
  std::array<std::uint64_t, kImbalanceBands> counts{};
  const std::size_t bands = imbalance_band_count(n);
  for (std::size_t v = 0; v < n; ++v)
    if (receives(v)) ++counts[imbalance_band_of(v, n, bands)];
  return counts;
}

inline BandStats reduce_bands(const std::uint64_t* counts,
                              std::size_t bands) {
  std::array<std::uint64_t, kImbalanceBands> sorted{};
  std::copy(counts, counts + bands, sorted.begin());
  std::sort(sorted.begin(), sorted.begin() + static_cast<long>(bands));
  BandStats s;
  s.min = sorted[0];
  s.median = sorted[bands / 2];
  s.max = sorted[bands - 1];
  return s;
}

}  // namespace detail

/// The fusion planner's cost model: per-cycle receive imbalance over the
/// deterministic band partition. A merged cycle's cost is the spread of
/// the union receiver set; fuse_schedules breaks ties between equally
/// greedy merge candidates toward the lower-spread union (sim/fusion.hpp).
struct CycleCostModel {
  /// max - min band receive count of one compiled cycle.
  std::uint64_t spread(const ScheduleCycle& c, std::size_t n) const {
    const auto counts =
        detail::band_counts(n, [&](std::size_t v) { return c.receives(v); });
    return detail::reduce_bands(counts.data(), imbalance_band_count(n))
        .spread();
  }

  /// Spread of the union of two port-disjoint cycles — the cost of
  /// replaying them merged. Disjoint receiver sets mean the union count
  /// is a plain sum.
  std::uint64_t merged_spread(const ScheduleCycle& ca,
                              const ScheduleCycle& cb, std::size_t n) const {
    const auto counts = detail::band_counts(n, [&](std::size_t v) {
      return ca.receives(v) || cb.receives(v);
    });
    return detail::reduce_bands(counts.data(), imbalance_band_count(n))
        .spread();
  }
};

/// Deterministic run-level imbalance summary (the report's "imbalance"
/// block). All fields are exact integers so reports stay byte-identical.
struct ImbalanceSummary {
  std::uint64_t cycles = 0;        ///< comm cycles profiled
  std::uint64_t band_min = 0;      ///< global min band count over cycles
  std::uint64_t band_max = 0;      ///< global max band count over cycles
  std::uint64_t spread_max = 0;    ///< worst single-cycle spread
  std::uint64_t spread_sum = 0;    ///< sum of per-cycle spreads
  std::uint64_t edge_load_max = 0;    ///< hottest edge total at publish
  std::uint64_t edge_load_delta = 0;  ///< max - min edge total at publish

  friend bool operator==(const ImbalanceSummary&,
                         const ImbalanceSummary&) = default;
};

/// Per-cycle imbalance telemetry. One profiler is attached to the machine
/// whose cycles should be accounted (Machine::attach_profiler); every comm
/// cycle — interpreted, replayed or fused — lands one band-stat
/// sample here from the driver thread. With the metrics registry armed the
/// samples also feed the sim.imbalance.* histograms.
class CycleProfiler {
 public:
  CycleProfiler() {
    if (MetricsRegistry::armed()) {
      auto& reg = MetricsRegistry::instance();
      const auto bounds = Histogram::pow2_bounds(24);
      h_min_ = &reg.histogram("sim.imbalance.worker_min", bounds);
      h_median_ = &reg.histogram("sim.imbalance.worker_median", bounds);
      h_max_ = &reg.histogram("sim.imbalance.worker_max", bounds);
      h_spread_ = &reg.histogram("sim.imbalance.spread", bounds);
      h_edge_ = &reg.histogram("sim.imbalance.edge_load", bounds);
    }
  }

  /// A replayed compiled cycle: band counts from its receiver predicate
  /// (ScheduleCycle::receives, either form).
  void note_cycle(const ScheduleCycle& c, std::size_t n) {
    note_cycle_mask(n, [&](std::size_t v) { return c.receives(v); });
  }

  /// An interpreted cycle: `receives(v)` says whether node v got a
  /// message this cycle (the driver scans the delivered inbox).
  template <typename F>
  void note_cycle_mask(std::size_t n, F&& receives) {
    const auto counts = detail::band_counts(n, receives);
    note_counts(counts.data(), imbalance_band_count(n));
  }

  /// A fused exchange+combine cycle with no compiled cycle behind it (the
  /// sharded engine's): every node receives exactly once.
  void note_cycle_uniform(std::size_t n) {
    note_cycle_mask(n, [](std::size_t) { return true; });
  }

  /// Publish-time edge-load shape from one EdgeLoadCounters::merged()
  /// snapshot: hottest edge and hottest-vs-coldest delta, plus one
  /// histogram observation per edge when armed.
  void note_edge_loads(const std::vector<std::uint64_t>& merged) {
    if (merged.empty()) return;
    std::uint64_t lo = merged[0], hi = merged[0];
    for (const std::uint64_t load : merged) {
      lo = std::min(lo, load);
      hi = std::max(hi, load);
      if (h_edge_ != nullptr) h_edge_->observe(load);
    }
    summary_.edge_load_max = std::max(summary_.edge_load_max, hi);
    summary_.edge_load_delta = std::max(summary_.edge_load_delta, hi - lo);
  }

  const ImbalanceSummary& summary() const { return summary_; }

 private:
  void note_counts(const std::uint64_t* counts, std::size_t bands) {
    const BandStats s = detail::reduce_bands(counts, bands);
    if (summary_.cycles == 0) {
      summary_.band_min = s.min;
      summary_.band_max = s.max;
    } else {
      summary_.band_min = std::min(summary_.band_min, s.min);
      summary_.band_max = std::max(summary_.band_max, s.max);
    }
    ++summary_.cycles;
    summary_.spread_max = std::max(summary_.spread_max, s.spread());
    summary_.spread_sum += s.spread();
    if (h_min_ != nullptr) {
      h_min_->observe(s.min);
      h_median_->observe(s.median);
      h_max_->observe(s.max);
      h_spread_->observe(s.spread());
    }
  }

  ImbalanceSummary summary_;
  Histogram* h_min_ = nullptr;
  Histogram* h_median_ = nullptr;
  Histogram* h_max_ = nullptr;
  Histogram* h_spread_ = nullptr;
  Histogram* h_edge_ = nullptr;
};

// --- critical-path attribution ---------------------------------------------

/// Cycles and messages charged to one phase of one track.
struct PhaseCost {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t messages = 0;
};

/// One machine's timeline: phase costs sorted hottest-first. The phase
/// cycle totals always sum to total_cycles (the "(unattributed)" bucket
/// absorbs cycles outside any phase span).
struct TrackProfile {
  std::string label;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_messages = 0;
  std::vector<PhaseCost> phases;
};

struct Profile {
  std::uint64_t dropped_events = 0;
  bool complete = false;  ///< dropped_events == 0: totals are exact
  std::vector<TrackProfile> tracks;
};

/// Maps a span name to its attribution phase, or "" for spans that are
/// not phases (the comm-cycle spans themselves).
inline std::string phase_of_span(std::string_view name) {
  for (const std::string_view prefix :
       {std::string_view{"record:"}, std::string_view{"replay:"},
        std::string_view{"interp:"}, std::string_view{"load:"},
        std::string_view{"fuse:"}}) {
    if (name.substr(0, prefix.size()) == prefix)
      return std::string(prefix.substr(0, prefix.size() - 1));
  }
  constexpr std::string_view kPhase = "phase:";
  if (name.substr(0, kPhase.size()) == kPhase)
    return std::string(name.substr(kPhase.size()));
  return {};
}

/// Walks the merged event stream and charges every comm cycle to the
/// innermost enclosing phase span on its track. With dropped events the
/// stream may open mid-span; attribution stays best-effort (mismatched
/// 'E's are ignored) and the profile is marked incomplete.
inline Profile build_profile(const TraceRecorder& rec) {
  Profile p;
  p.dropped_events = rec.dropped();
  p.complete = p.dropped_events == 0;
  const std::vector<std::string> labels = rec.track_labels();
  p.tracks.resize(labels.size());
  for (std::size_t t = 0; t < labels.size(); ++t) p.tracks[t].label = labels[t];

  std::vector<std::vector<const char*>> stacks(labels.size());
  // phase name -> (cycles, messages), per track; std::map keeps the
  // eventual tie-order deterministic.
  std::vector<std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      acc(labels.size());
  for (const TraceEvent& e : rec.merged()) {
    if (e.track >= labels.size()) continue;
    std::vector<const char*>& stack = stacks[e.track];
    if (e.ph == 'B') {
      stack.push_back(e.name);
    } else if (e.ph == 'E') {
      if (!stack.empty() && std::string_view(stack.back()) == e.name)
        stack.pop_back();
      if (e.kind == TraceEventKind::kCycleEnd) {
        std::string phase = "(unattributed)";
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          std::string candidate = phase_of_span(*it);
          if (!candidate.empty()) {
            phase = std::move(candidate);
            break;
          }
        }
        auto& cell = acc[e.track][phase];
        cell.first += 1;
        cell.second += e.arg_a;
        p.tracks[e.track].total_cycles += 1;
        p.tracks[e.track].total_messages += e.arg_a;
      }
    }
  }
  for (std::size_t t = 0; t < labels.size(); ++t) {
    for (const auto& [name, cost] : acc[t])
      p.tracks[t].phases.push_back(PhaseCost{name, cost.first, cost.second});
    std::sort(p.tracks[t].phases.begin(), p.tracks[t].phases.end(),
              [](const PhaseCost& a, const PhaseCost& b) {
                if (a.cycles != b.cycles) return a.cycles > b.cycles;
                return a.name < b.name;
              });
  }
  return p;
}

// --- hottest edges ----------------------------------------------------------

/// One directed edge and its merged message total.
struct HotEdge {
  net::NodeId u = 0;
  net::NodeId v = 0;
  std::uint64_t load = 0;
};

/// The k hottest directed edges of one EdgeLoadCounters::merged()
/// snapshot, filtered by `keep(u, v)`. CSR slots are row-major, so one
/// sequential walk covers every edge; the ranking (load desc, then u, v
/// asc) is deterministic.
template <typename Pred>
std::vector<HotEdge> top_k_hot_edges(const net::FlatAdjacency& adj,
                                     const std::vector<std::uint64_t>& loads,
                                     std::size_t k, Pred&& keep) {
  std::vector<HotEdge> all;
  std::size_t slot = 0;
  for (net::NodeId u = 0; u < adj.node_count(); ++u) {
    for (const net::NodeId v : adj.row(u)) {
      const std::uint64_t load = loads[slot++];
      if (keep(u, v)) all.push_back(HotEdge{u, v, load});
    }
  }
  std::sort(all.begin(), all.end(), [](const HotEdge& a, const HotEdge& b) {
    if (a.load != b.load) return a.load > b.load;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

inline std::vector<HotEdge> top_k_hot_edges(
    const net::FlatAdjacency& adj, const std::vector<std::uint64_t>& loads,
    std::size_t k) {
  return top_k_hot_edges(adj, loads, k,
                         [](net::NodeId, net::NodeId) { return true; });
}

}  // namespace dc::sim
