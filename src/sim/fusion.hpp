// Schedule-aware fusion: overlap independent compiled sections on
// disjoint ports.
//
// Two compiled schedules A and B from *independent* algorithm runs (no
// data flows between them) can share the wire: a cycle of A and a cycle
// of B may execute as one replay cycle iff their port usage is disjoint —
// no node sends in both and no node receives in both (the simulator's
// 1-port-per-direction rule; a node sending in A while receiving in B is
// fine, exchanges do that within one section already). Because a compiled
// ScheduleCycle names every receiver's sender (ScheduleCycle::sender, for
// the compact XOR-mask form and the dense arrays alike), that legality
// check is a static precomputation — no algorithm code runs to build a
// fusion plan.
//
// fuse_schedules() builds the plan with a forward-scan greedy: walk A's
// cycles in order, and for each one claim the first not-yet-scheduled
// B cycle it is port-disjoint with; B cycles skipped over are emitted
// unfused, in order, before the merged step. Each section's internal
// cycle order is preserved exactly (that is the only correctness
// requirement independence leaves), and every merged step shortens the
// fused stream by one cycle: total steps = |A| + |B| - merged.
//
// With a CycleCostModel (sim/profile.hpp) the greedy plan gets a
// refinement pass: each merged step may swap its B cycle for another
// not-yet-merged B cycle strictly between its merged neighbours (so both
// sections' internal orders and the merge count are untouched) when that
// strictly lowers the merged cycle's receive-band spread. Ties keep the
// greedy choice, so a cost-blind run and an all-ties run produce
// byte-identical plans — step count, merge count and replayed results
// never change, only *which* equally-mergeable cycles share a step.
//
// replay_fused() executes the plan. Every step is one
// Machine::comm_cycle_scheduled_blocks pass over fixed-width rows; a
// merged step replays the merged receiver arrays (merged cycles are always
// dense), the sender sets being disjoint lets one row callback dispatch
// per sender to the owning section, and each section's consumer sees only
// its own deliveries through a SectionInbox filtered by that section's
// original cycle. Fusion requires both schedules to already be compiled
// (record runs interleave state with validation and cannot overlap);
// callers fall back to sequential section runs when either is absent.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/schedule.hpp"

namespace dc::sim {

/// "No cycle of this section at this step" marker.
inline constexpr std::size_t kNoCycle = ~std::size_t{0};

/// One cycle of the fused stream: a cycle index into schedule A, B, or —
/// when merged — both (with the merged receiver arrays at merged_index).
struct FusedStep {
  std::size_t a = kNoCycle;
  std::size_t b = kNoCycle;
  std::size_t merged_index = kNoCycle;
};

/// A static fusion plan over two compiled schedules. Holds shared
/// ownership of both inputs; unfused steps replay the original cycles
/// in place, merged steps replay the precomputed union cycles.
struct FusedSchedule {
  std::shared_ptr<const Schedule> a;
  std::shared_ptr<const Schedule> b;
  std::vector<FusedStep> steps;
  std::vector<ScheduleCycle> merged;  ///< union cycles, receiver-major
  /// Per merged cycle, indexed by *sender*: 1 iff the sender belongs to
  /// B (legal because merged sender sets are disjoint). Payload dispatch
  /// in replay_fused reads this.
  std::vector<std::vector<std::uint8_t>> merged_sender_from_b;

  std::size_t merged_count() const { return merged.size(); }
  /// Replay cycles saved versus running A then B unfused.
  std::size_t cycles_saved() const {
    return a->cycle_count() + b->cycle_count() - steps.size();
  }
};

/// True iff the two cycles touch disjoint ports: no common receiver and
/// no common sender. `sender_scratch` must hold n zero bytes on entry and
/// is restored to zeros on exit (no allocation per check).
inline bool cycles_port_disjoint(const ScheduleCycle& ca,
                                 const ScheduleCycle& cb, std::size_t n,
                                 std::vector<std::uint8_t>& sender_scratch) {
  bool ok = true;
  for (std::size_t v = 0; v < n && ok; ++v)
    if (ca.receives(v) && cb.receives(v)) ok = false;  // common receiver
  const auto mark_senders_of_a = [&](std::uint8_t mark) {
    for (std::size_t v = 0; v < n; ++v) {
      const net::NodeId u = ca.sender(v);
      if (u != kNoSender) sender_scratch[static_cast<std::size_t>(u)] = mark;
    }
  };
  mark_senders_of_a(1);
  for (std::size_t v = 0; v < n && ok; ++v) {
    const net::NodeId u = cb.sender(v);
    if (u != kNoSender && sender_scratch[static_cast<std::size_t>(u)])
      ok = false;  // common sender
  }
  mark_senders_of_a(0);
  return ok;
}

namespace detail {

/// Builds the (dense) union cycle of a merged (A cycle, B cycle) pair and
/// appends the merged step. Port disjointness was already established. A
/// compact source contributes kNoEdgeSlot slots, which edge-load booking
/// resolves from the CSR.
inline void append_merged_step(FusedSchedule& f, std::size_t i, std::size_t k,
                               std::size_t n) {
  const ScheduleCycle& ca = f.a->cycle(i);
  const ScheduleCycle& cb = f.b->cycle(k);
  ScheduleCycle u;
  u.recv_from.resize(n);
  u.recv_slot.resize(n);
  std::vector<std::uint8_t> from_b(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const net::NodeId sender_b = cb.sender(v);
    const ScheduleCycle& own = sender_b != kNoSender ? cb : ca;
    u.recv_from[v] = own.sender(v);
    u.recv_slot[v] = own.edge_slot(v);
    if (sender_b != kNoSender) from_b[static_cast<std::size_t>(sender_b)] = 1;
  }
  u.message_count = ca.message_count + cb.message_count;
  f.steps.push_back({i, k, f.merged.size()});
  f.merged.push_back(std::move(u));
  f.merged_sender_from_b.push_back(std::move(from_b));
}

}  // namespace detail

/// Builds the fusion plan for two compiled schedules over the same
/// n-node topology (the caller guarantees both were recorded on it and
/// that the two runs are data-independent). With a cost model, equally
/// greedy merge candidates are re-chosen toward the lower merged-cycle
/// receive-band spread — same step count, same merge count, bit-identical
/// replay results (and the exact greedy plan whenever every cost ties).
inline FusedSchedule fuse_schedules(std::shared_ptr<const Schedule> a,
                                    std::shared_ptr<const Schedule> b,
                                    std::size_t n,
                                    const CycleCostModel* cost = nullptr) {
  DC_REQUIRE(a && b, "fusion needs two compiled schedules");
  FusedSchedule f;
  f.a = std::move(a);
  f.b = std::move(b);
  std::vector<std::uint8_t> sender_scratch(n, 0);

  // Pass 1 — forward-scan greedy pair selection: pairs[m] = (A cycle,
  // B cycle) of merged step m, with both components strictly increasing.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  {
    std::size_t j = 0;
    for (std::size_t i = 0; i < f.a->cycle_count(); ++i) {
      const ScheduleCycle& ca = f.a->cycle(i);
      std::size_t k = j;
      while (k < f.b->cycle_count() &&
             !cycles_port_disjoint(ca, f.b->cycle(k), n, sender_scratch))
        ++k;
      if (k == f.b->cycle_count()) continue;
      pairs.emplace_back(i, k);
      j = k + 1;
    }
  }

  // Pass 2 (cost model only) — per merged step, consider every unmerged
  // B cycle strictly between the neighbouring merged B cycles; those
  // windows keep B's internal order and the merge count intact. Swap in
  // the alternative with the strictly lowest merged spread (ties keep
  // the greedy choice, preserving plan parity when all costs tie).
  if (cost != nullptr) {
    for (std::size_t m = 0; m < pairs.size(); ++m) {
      const std::size_t i = pairs[m].first;
      const ScheduleCycle& ca = f.a->cycle(i);
      const std::size_t lo = m == 0 ? 0 : pairs[m - 1].second + 1;
      const std::size_t hi = m + 1 < pairs.size() ? pairs[m + 1].second
                                                  : f.b->cycle_count();
      std::size_t best = pairs[m].second;
      std::uint64_t best_spread =
          cost->merged_spread(ca, f.b->cycle(best), n);
      for (std::size_t k = lo; k < hi; ++k) {
        if (k == pairs[m].second) continue;
        if (!cycles_port_disjoint(ca, f.b->cycle(k), n, sender_scratch))
          continue;
        const std::uint64_t spread =
            cost->merged_spread(ca, f.b->cycle(k), n);
        if (spread < best_spread) {
          best = k;
          best_spread = spread;
        }
      }
      pairs[m].second = best;
    }
  }

  // Pass 3 — emit the step stream from the final pairing: unfused B
  // cycles fill the gaps in order, unpaired A cycles replay alone.
  {
    std::size_t m = 0;
    std::size_t j = 0;
    for (std::size_t i = 0; i < f.a->cycle_count(); ++i) {
      if (m < pairs.size() && pairs[m].first == i) {
        const std::size_t k = pairs[m].second;
        for (; j < k; ++j) f.steps.push_back({kNoCycle, j, kNoCycle});
        detail::append_merged_step(f, i, k, n);
        j = k + 1;
        ++m;
      } else {
        f.steps.push_back({i, kNoCycle, kNoCycle});
      }
    }
    for (; j < f.b->cycle_count(); ++j)
      f.steps.push_back({kNoCycle, j, kNoCycle});
  }
  return f;
}

/// One section's view of a (possibly merged) replay cycle's block inbox:
/// only deliveries whose receiver appears in this section's own compiled
/// cycle are visible, so each consumer sees exactly what its unfused run
/// would have seen.
template <typename T>
class SectionInbox {
 public:
  SectionInbox(const BlockInbox<T>& in, const ScheduleCycle& own)
      : in_(in), own_(own) {}

  /// The row node u received in this section this cycle, or nullptr.
  const T* get(net::NodeId u) const {
    if (!own_.receives(static_cast<std::size_t>(u)) || !in_.has(u))
      return nullptr;
    return in_.block(u);
  }

 private:
  const BlockInbox<T>& in_;
  const ScheduleCycle& own_;
};

/// Replays a fusion plan. Per step it issues exactly one
/// comm_cycle_scheduled_blocks pass of `width`-element rows of T;
/// src_a/src_b(cycle_index, sender, dst) write the section's outgoing row
/// (invoked once per delivered message, from pool workers — read-only on
/// shared state, like plan callbacks), and consume_a/consume_b(cycle_index,
/// SectionInbox) apply the section's per-cycle state update after the
/// pass. Emits one "schedule_fuse" trace instant carrying the merged-cycle
/// count.
template <typename T, typename SrcA, typename ConsumeA, typename SrcB,
          typename ConsumeB>
void replay_fused(Machine& m, const FusedSchedule& f, std::size_t width,
                  SrcA&& src_a, ConsumeA&& consume_a, SrcB&& src_b,
                  ConsumeB&& consume_b) {
  if (TraceRecorder* rec = m.trace()) {
    rec->instant(m.trace_track(), 0, "schedule_fuse", "merged",
                 f.merged_count());
  }
  for (const FusedStep& step : f.steps) {
    if (step.merged_index != kNoCycle) {
      const std::vector<std::uint8_t>& from_b =
          f.merged_sender_from_b[step.merged_index];
      auto inbox = m.comm_cycle_scheduled_blocks<T>(
          f.merged[step.merged_index], width, [&](net::NodeId u, T* dst) {
            if (from_b[static_cast<std::size_t>(u)]) {
              src_b(step.b, u, dst);
            } else {
              src_a(step.a, u, dst);
            }
          });
      consume_a(step.a, SectionInbox<T>(inbox, f.a->cycle(step.a)));
      consume_b(step.b, SectionInbox<T>(inbox, f.b->cycle(step.b)));
    } else if (step.a != kNoCycle) {
      const ScheduleCycle& cyc = f.a->cycle(step.a);
      auto inbox = m.comm_cycle_scheduled_blocks<T>(
          cyc, width, [&](net::NodeId u, T* dst) { src_a(step.a, u, dst); });
      consume_a(step.a, SectionInbox<T>(inbox, cyc));
    } else {
      const ScheduleCycle& cyc = f.b->cycle(step.b);
      auto inbox = m.comm_cycle_scheduled_blocks<T>(
          cyc, width, [&](net::NodeId u, T* dst) { src_b(step.b, u, dst); });
      consume_b(step.b, SectionInbox<T>(inbox, cyc));
    }
  }
}

}  // namespace dc::sim
