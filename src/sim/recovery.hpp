// Self-healing execution over a dynamic fault timeline.
//
// A FaultTimeline (sim/faults.hpp) makes the faulted view a function of
// the cycle index: links flap, nodes die and rejoin. The fault-tolerant
// collectives, however, plan against one static FaultPlan — proxies,
// detour routes and schedules are all derived from a single snapshot. The
// RecoveryDriver closes that gap with retry-with-replan:
//
//   1. Attach the timeline to the machine under kStrict. Every cycle is
//      filtered against the faults live *now*; the schedule path is
//      forced to kInterpreted (and every compiled entry point refuses a
//      faulted machine outright), so no stale schedule can ever replay —
//      each epoch's FaultyTopology view fingerprints differently anyway.
//   2. Run work in *phases*: run_phase(label, body) hands `body` a
//      FaultPlan snapshot of the current epoch and executes it. The body
//      must be restartable — it reads its inputs from a caller-owned
//      checkpoint and only publishes results when it returns.
//   3. If an epoch change mid-phase makes the snapshot stale, the strict
//      filter (or the detour router hitting a disconnection) throws
//      FaultError. The driver pays a bounded backoff of idle machine
//      cycles — advancing the clock so transient windows can expire —
//      re-snapshots the new epoch (re-plan), and retries the phase from
//      its checkpoint.
//   4. A configurable retry budget bounds the total number of retries.
//      On exhaustion the driver either degrades — one final attempt with
//      the machine's policy set to FaultPolicy::kDegrade (its epoch
//      bookkeeping carries on, so no epoch is counted twice), so residual
//      fault touches drop messages (counted in Counters::messages_lost)
//      instead of aborting — or rethrows, per RetryPolicy. A degraded attempt
//      whose detour transport loses a message the algorithm needs (a
//      later epoch killed a planned hop) still throws FaultError: a lost
//      partial sum or key cannot be emulated.
//   5. A retry that can only see the faults the failed attempt saw — no
//      epoch began during that attempt, no later epoch starts and no drop
//      window is live — would replay the same snapshot and fail the same
//      way. The driver then spends none of its remaining budget and goes
//      straight to the outcome of step 4.
//
// The driver traces "recovery_retry" / "recovery_replan" instants and
// counts retries/replans into the metrics registry (sim.fault.retries,
// sim.fault.replans); phase bodies get their own "phase:" spans from the
// collectives they call. resilient_dual_prefix / resilient_dual_broadcast
// below wrap the existing fault-tolerant collectives as single retriable
// phases; the fault-tolerant sort (core/ft_dual_sort.hpp) runs one
// dual_bitonic_level per phase under a ProxyScope, so completed levels
// are never re-executed after a link flap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "collectives/ft_broadcast.hpp"
#include "core/ft_dual_prefix.hpp"
#include "sim/fault_transport.hpp"
#include "sim/faults.hpp"
#include "sim/machine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"

namespace dc::sim {

/// Bounds on the driver's self-healing behavior.
struct RetryPolicy {
  /// Total retries across all phases of one driver (a phase's first
  /// attempt is free). 0 = fail on the first mid-phase fault.
  std::size_t retry_budget = 8;
  /// Idle machine cycles paid before retry k of a phase: k * backoff_cycles
  /// (linear backoff — each cycle advances the timeline clock, so flap
  /// windows expire instead of being retried into forever).
  std::uint64_t backoff_cycles = 2;
  /// On budget exhaustion, or when no later fault event can change what
  /// a retry sees: true = one final attempt under FaultPolicy::kDegrade
  /// (messages touching faults are dropped and counted, the collective
  /// completes degraded), false = rethrow the FaultError to the caller.
  bool degrade_on_exhaustion = true;
};

/// What the self-healing run actually did.
struct RecoveryReport {
  std::size_t phases = 0;          ///< run_phase calls
  std::size_t attempts = 0;        ///< phase executions incl. retries
  std::size_t retries = 0;         ///< attempts beyond each phase's first
  std::size_t replans = 0;         ///< fresh snapshots taken after a fault
  std::size_t restarts = 0;        ///< caller-signalled restarts (dead set grew)
  std::uint64_t backoff_cycles = 0;  ///< idle cycles paid waiting out faults
  bool degraded = false;           ///< budget exhausted, finished in kDegrade
  FtReport transport;              ///< accumulated detour-transport costs
};

/// Drives retriable phases of a collective against a Machine with an
/// attached FaultTimeline. Construction attaches the timeline (kStrict);
/// destruction detaches it and restores the machine's previous fault
/// state (none).
class RecoveryDriver {
 public:
  RecoveryDriver(Machine& m, std::shared_ptr<const FaultTimeline> timeline,
                 RetryPolicy policy = {})
      : m_(m), timeline_(std::move(timeline)), policy_(policy) {
    DC_REQUIRE(timeline_ != nullptr, "recovery needs a fault timeline");
    DC_REQUIRE(!m_.has_faults(),
               "recovery driver owns the machine's fault attachment");
    m_.attach_faults(timeline_, FaultPolicy::kStrict);
    if (MetricsRegistry::armed()) {
      auto& reg = MetricsRegistry::instance();
      metric_retries_ = &reg.counter("sim.fault.retries");
      metric_replans_ = &reg.counter("sim.fault.replans");
    }
  }
  ~RecoveryDriver() { m_.clear_faults(); }
  RecoveryDriver(const RecoveryDriver&) = delete;
  RecoveryDriver& operator=(const RecoveryDriver&) = delete;

  Machine& machine() { return m_; }
  const FaultTimeline& timeline() const { return *timeline_; }
  const RetryPolicy& policy() const { return policy_; }
  const RecoveryReport& report() const { return report_; }
  FtReport* transport() { return &report_.transport; }

  /// The machine's current cycle index — the timeline clock.
  std::uint64_t now() const { return m_.counters().comm_cycles; }

  /// The faults live right now, frozen as a plan (what the next phase
  /// should route against).
  FaultPlan snapshot() const { return timeline_->snapshot(now()); }

  /// Notes a caller-driven restart (e.g. the sort detecting that the dead
  /// set grew past what its in-flight state was built for).
  void note_restart() { ++report_.restarts; }

  /// Runs one retriable phase. `body(plan)` executes machine steps routed
  /// against `plan` (the current epoch's snapshot) and must be
  /// restartable: read inputs from caller-owned checkpoint state, publish
  /// results only on return. On FaultError the driver backs off,
  /// re-snapshots and re-invokes `body` with the fresh plan, up to the
  /// retry budget and only while a later fault event can change what a
  /// retry sees; see RetryPolicy for what happens past that. `label` is a
  /// trace span name and should carry the "phase:" prefix.
  template <typename Body>
  void run_phase(const char* label, Body&& body) {
    ++report_.phases;
    for (std::size_t attempt = 0;; ++attempt) {
      ++report_.attempts;
      const std::size_t epoch = timeline_->epoch_of(now());
      try {
        TraceScope span(m_.trace(), m_.trace_track(), label);
        body(snapshot());
        return;
      } catch (const FaultError&) {
        const bool futile = timeline_->epoch_of(now()) == epoch &&
                            !timeline_->changes_after(now());
        if (futile || retries_used_ >= policy_.retry_budget) {
          if (TraceRecorder* rec = m_.trace()) {
            rec->instant(m_.trace_track(), 0, "recovery_exhausted", "retries",
                         retries_used_, "cycle", now());
          }
          if (!policy_.degrade_on_exhaustion) throw;
          run_degraded(label, body);
          return;
        }
        ++retries_used_;
        ++report_.retries;
        if (metric_retries_) metric_retries_->add();
        if (TraceRecorder* rec = m_.trace()) {
          rec->instant(m_.trace_track(), 0, "recovery_retry", "attempt",
                       attempt + 1, "cycle", now());
        }
        backoff(attempt + 1);
        ++report_.replans;
        if (metric_replans_) metric_replans_->add();
        if (TraceRecorder* rec = m_.trace()) {
          rec->instant(m_.trace_track(), 0, "recovery_replan", "epoch",
                       timeline_->epoch_of(now()), "cycle", now());
        }
      }
    }
  }

 private:
  /// Pays `k * backoff_cycles` idle comm cycles: every node plans no
  /// message, so the cycle is pure clock advance (the fault filter still
  /// runs, costing nothing on an empty outbox).
  void backoff(std::size_t k) {
    const std::uint64_t cycles = policy_.backoff_cycles * k;
    for (std::uint64_t i = 0; i < cycles; ++i) {
      m_.comm_cycle<char>(
          [](net::NodeId) { return std::optional<Send<char>>{}; });
    }
    report_.backoff_cycles += cycles;
  }

  /// The budget-exhausted final attempt: switch the machine's policy to
  /// kDegrade so residual fault touches drop instead of throwing, run the
  /// body once against the current snapshot, restore kStrict (also when
  /// the body throws).
  template <typename Body>
  void run_degraded(const char* label, Body&& body) {
    report_.degraded = true;
    struct RestoreStrict {
      Machine& m;
      ~RestoreStrict() { m.set_fault_policy(FaultPolicy::kStrict); }
    } restore{m_};
    m_.set_fault_policy(FaultPolicy::kDegrade);
    TraceScope span(m_.trace(), m_.trace_track(), label);
    body(snapshot());
  }

  Machine& m_;
  std::shared_ptr<const FaultTimeline> timeline_;
  RetryPolicy policy_;
  RecoveryReport report_;
  std::size_t retries_used_ = 0;
  MetricCounter* metric_retries_ = nullptr;
  MetricCounter* metric_replans_ = nullptr;
};

/// D_prefix as one retriable phase: ft_dual_prefix against the epoch
/// snapshot, retried with replan on mid-run epoch changes. Result slots of
/// nodes dead in the *final* successful attempt's snapshot are nullopt,
/// exactly as in the static fault-tolerant collective.
template <core::Monoid M>
std::vector<std::optional<typename M::value_type>> resilient_dual_prefix(
    RecoveryDriver& drv, const net::DualCube& d, const M& op,
    const std::vector<typename M::value_type>& data, bool inclusive = true) {
  std::vector<std::optional<typename M::value_type>> out;
  drv.run_phase("phase:resilient_prefix", [&](const FaultPlan& plan) {
    FtReport rep;
    out = core::ft_dual_prefix(drv.machine(), d, op, data, plan, inclusive,
                               &rep);
    drv.transport()->base_cycles = rep.base_cycles;
    drv.transport()->repair_cycles += rep.repair_cycles;
    drv.transport()->repaired += rep.repaired;
    drv.transport()->rerouted_hops += rep.rerouted_hops;
    drv.transport()->bfs_fallbacks += rep.bfs_fallbacks;
  });
  return out;
}

/// D_broadcast as one retriable phase; same contract as
/// resilient_dual_prefix. The root must survive the whole timeline.
template <typename V>
std::vector<std::optional<V>> resilient_dual_broadcast(
    RecoveryDriver& drv, const net::DualCube& d, net::NodeId root,
    const V& value) {
  std::vector<std::optional<V>> out;
  drv.run_phase("phase:resilient_broadcast", [&](const FaultPlan& plan) {
    FtReport rep;
    out = collectives::ft_dual_broadcast(drv.machine(), d, root, value, plan,
                                         &rep);
    drv.transport()->base_cycles = rep.base_cycles;
    drv.transport()->repair_cycles += rep.repair_cycles;
    drv.transport()->repaired += rep.repaired;
    drv.transport()->rerouted_hops += rep.rerouted_hops;
    drv.transport()->bfs_fallbacks += rep.bfs_fallbacks;
  });
  return out;
}

}  // namespace dc::sim
