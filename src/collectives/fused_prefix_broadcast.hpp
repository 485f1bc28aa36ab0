// Fused prefix → broadcast: the emulated prefix overlaps the pipeline
// broadcast on the recursive dual-cube's idle ports.
//
// The two compiled stragglers are exactly the fusable pair. The emulated
// prefix (core/emulated_prefix.hpp) spends its relayed dimension steps on
// half the ports — cycle 1 of a dimension-j step sends class-indirect →
// class-direct, cycle 2 exchanges inside the direct class, cycle 3
// returns direct → indirect — while the ring pipeline broadcast
// (collectives/pipeline_broadcast.hpp) touches at most B ring edges per
// cycle. Along the Hamiltonian ring those edges alternate long
// intra-cluster stretches (both endpoints one class) with cross edges
// (classes differ), so for every relay cycle there is some ring cycle
// whose ports it misses entirely: c2 fuses with an intra-cluster edge of
// the opposite class, c1/c3 with a cross edge of the matching direction.
// Only the 1-cycle dimension-0 exchange (every port busy) can never fuse.
//
// fused_prefix_broadcast() runs both algorithms to completion with the
// broadcast data never waiting for the prefix: both compiled schedules are
// fetched from the ScheduleCache, fused by the static port-conflict check
// (sim/fusion.hpp), and replayed as one stream — results bit-identical to
// the sequential runs, total comm cycles |A| + |B| - merged. When either
// schedule is not yet compiled (first run, interpreted path, faults
// attached) it falls back to the two sequential section runs — which are
// exactly what records the schedules, so the next call fuses.
#pragma once

#include <utility>
#include <vector>

#include "collectives/pipeline_broadcast.hpp"
#include "core/dimension_exchange.hpp"
#include "core/emulated_prefix.hpp"
#include "sim/fusion.hpp"
#include "sim/oblivious.hpp"
#include "topology/hamiltonian.hpp"

namespace dc::collectives {

template <typename V>
struct FusedPrefixBroadcastResult {
  std::vector<V> prefix;                 ///< emulated_prefix(op, data)
  std::vector<std::vector<V>> received;  ///< ring broadcast of `chunks`
  bool fused = false;          ///< false: sequential fallback (recording)
  std::size_t fused_steps = 0;     ///< comm cycles of the fused stream
  std::size_t unfused_cycles = 0;  ///< prefix cycles + broadcast cycles
  std::size_t merged = 0;          ///< steps replaying both sections
};

/// Computes the inclusive prefix of `data` under `op` AND pipeline-
/// broadcasts `chunks` from `root`, overlapping the two on disjoint ports
/// when both schedules are compiled. V must be semiregular, as for
/// emulated_prefix: fused messages travel as 2-wide block rows of V.
template <core::Monoid M>
FusedPrefixBroadcastResult<typename M::value_type> fused_prefix_broadcast(
    sim::Machine& m, const net::RecursiveDualCube& r, const M& op,
    const std::vector<typename M::value_type>& data, net::NodeId root,
    const std::vector<typename M::value_type>& chunks) {
  using V = typename M::value_type;
  DC_REQUIRE(data.size() == r.node_count(), "one input per node required");
  DC_REQUIRE(root < r.node_count(), "root out of range");
  DC_REQUIRE(!chunks.empty(), "nothing to broadcast");
  const std::size_t n = static_cast<std::size_t>(r.node_count());

  FusedPrefixBroadcastResult<V> out;
  const auto ring = net::recursive_dual_cube_hamiltonian_cycle(r);

  // Both sections' cache keys, exactly as their section runs record them.
  std::shared_ptr<const sim::Schedule> sa, sb;
  if (m.schedule_path() == sim::SchedulePath::kCompiled && !m.has_faults()) {
    const std::string topo = sim::ObliviousSection::topology_identity(r);
    sa = sim::ScheduleCache::instance().find(
        {topo, "emulated_prefix", {r.order()}, m.validating()});
    sb = sim::ScheduleCache::instance().find(
        {topo,
         "ring_pipeline_broadcast",
         {root, chunks.size(), ring_fingerprint(ring)},
         m.validating()});
  }
  if (!sa || !sb) {
    // Sequential fallback — and, on the compiled path, the record runs
    // that make the next call fuse.
    out.prefix = core::emulated_prefix(m, r, op, data);
    out.received = ring_pipeline_broadcast(m, ring, root, chunks);
    return out;
  }

  // Fuse under the band cost model: same merge count as the pure greedy
  // scan, but among equal-cardinality pairings the planner prefers the
  // partner cycle with the lower merged receiver-band spread.
  const sim::CycleCostModel cost;
  const sim::FusedSchedule plan = sim::fuse_schedules(sa, sb, n, &cost);
  out.fused = true;
  out.fused_steps = plan.steps.size();
  out.unfused_cycles = sa->cycle_count() + sb->cycle_count();
  out.merged = plan.merged_count();

  // ---- Prefix state (mirrors core::emulated_prefix and its width-1
  // core::dimension_exchange_blocks relay cycle for cycle; a-cycle ca maps
  // to the dimension-0 exchange when ca == 0, else to phase (ca-1)%3 of
  // dimension 1 + (ca-1)/3).
  std::vector<V> t = data;
  std::vector<V> s = data;
  std::vector<V> gathered(n);     // cycle-1 deliveries at direct nodes
  std::vector<V> pair_first(n);   // cycle-2 deliveries at direct nodes
  std::vector<V> pair_second(n);
  std::vector<V> temp(n);         // the completed dimension exchange

  const auto a_dim = [](std::size_t ca) -> unsigned {
    return ca == 0 ? 0u : 1u + static_cast<unsigned>((ca - 1) / 3);
  };
  const auto a_phase = [](std::size_t ca) -> unsigned {
    return ca == 0 ? 0u : static_cast<unsigned>((ca - 1) % 3);
  };
  const auto direct0 = [](unsigned j) { return j % 2 == 0 ? 0u : 1u; };

  const auto a_compute = [&](unsigned i) {
    m.compute_step([&](net::NodeId u) {
      if (dc::bits::get(u, i) == 1) {
        s[u] = op.combine(temp[u], s[u]);
        t[u] = op.combine(temp[u], t[u]);
        m.add_ops(2);
      } else {
        t[u] = op.combine(t[u], temp[u]);
        m.add_ops(1);
      }
    });
  };

  // Row element 1 is read only on the relay's pair cycle (phase 1), whose
  // senders always write it; every other cycle ships element 0 alone.
  const auto src_a = [&](std::size_t ca, net::NodeId u, V* row) {
    const unsigned phase = a_phase(ca);
    row[0] = phase == 2 ? pair_second[u] : t[u];
    if (phase == 1) row[1] = gathered[u];
  };
  const auto consume_a = [&](std::size_t ca, sim::SectionInbox<V> in) {
    const unsigned j = a_dim(ca);
    if (j == 0) {
      m.for_each_node([&](net::NodeId u) { temp[u] = *in.get(u); });
      a_compute(0);
      return;
    }
    switch (a_phase(ca)) {
      case 0:
        m.for_each_node([&](net::NodeId u) {
          if (const V* row = in.get(u)) gathered[u] = row[0];
        });
        return;
      case 1:
        m.for_each_node([&](net::NodeId u) {
          if (const V* row = in.get(u)) {
            pair_first[u] = row[0];
            pair_second[u] = row[1];
          }
        });
        return;
      default:
        m.for_each_node([&](net::NodeId u) {
          temp[u] = dc::bits::get(u, 0) == direct0(j) ? pair_first[u]
                                                      : *in.get(u);
        });
        a_compute(j);
    }
  };

  // ---- Broadcast state (mirrors ring_pipeline_broadcast).
  std::size_t root_pos = 0;
  while (ring[root_pos] != root) ++root_pos;
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i)
    position[ring[(root_pos + i) % n]] = i;
  out.received.assign(n, {});
  out.received[root] = chunks;

  const auto src_b = [&](std::size_t cb, net::NodeId u, V* row) {
    const std::size_t chunk = cb - position[u];
    row[0] = u == root ? chunks[chunk] : out.received[u][chunk];
  };
  const auto consume_b = [&](std::size_t, sim::SectionInbox<V> in) {
    m.for_each_node([&](net::NodeId u) {
      if (u == root) return;
      if (const V* row = in.get(u)) out.received[u].push_back(*row);
    });
  };

  // The fused stream is one span on the trace, like a section's
  // replay-path span but named for the fusion.
  const char* span = nullptr;
  if (sim::TraceRecorder* rec = m.trace()) {
    span = rec->intern("fuse:prefix_broadcast");
    rec->begin(m.trace_track(), 0, span);
  }
  sim::replay_fused<V>(m, plan, 2, src_a, consume_a, src_b, consume_b);
  if (span) m.trace()->end(m.trace_track(), 0, span);

  out.prefix = std::move(s);
  for (net::NodeId u = 0; u < n; ++u)
    DC_CHECK(out.received[u].size() == chunks.size(),
             "fused pipeline under-delivered at node " << u);
  return out;
}

}  // namespace dc::collectives
