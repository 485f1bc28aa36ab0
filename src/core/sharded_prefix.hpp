// Sharded front-end of Algorithm 2: D_prefix at mega scale through
// sim/shard.hpp, bit-identical to core/dual_prefix.hpp on the flat engine.
//
// Under the shard layout (topology/shard_plan.hpp) the paper's Section 3
// data arrangement flattens perfectly: shard k's local index l holds global
// data index k * shard_nodes + l — the class/cluster/node permutation of
// dual_prefix_index_of_node is absorbed by the cluster-key ordering, so
// data loads and result emission are contiguous streams and the sink
// receives strictly ascending runs tiling [0, N).
//
// Execution maps the five steps onto two per-shard passes around one
// compact inter-shard exchange:
//
//   Pass A (per shard; real machine work) — step 1's in-cluster
//     Cube_prefix: n-1 fused exchange+combine sweeps (or interpreted
//     exchanges plus compute steps when the run needs per-message
//     fidelity) over the shard's t/s slices. Both apply Algorithm 1's step
//     from core/cube_prefix.hpp: the interpreted one per node
//     (detail::cube_prefix_step), the fused sweeps through the compact
//     kernel (detail::cube_prefix_compact) — after dimension i every node
//     of a 2^(i+1)-node subcube holds the same total, so t keeps one
//     entry per subcube instead of one per node. After the pass, each
//     cluster's total sits at its local node 0 on either path — the
//     entire contribution the shard ever sends across cluster
//     boundaries.
//
//   Compact exchange (host-side scan, "phase:shard_exchange") — steps 2-3
//     collapse: the cross-edge exchange delivers T1[j] to class-0 cluster
//     j's slot and T0[m] to class-1's, and the diminished in-cluster pass
//     over those totals yields per-cluster scalars P0[m] = combine of
//     T0[m' < m], P1[j] likewise, and the class-0 grand total G0. The
//     engine books the virtualized model costs (n+1 cycles, n-1 steps;
//     see end_run) so Counters match a flat run exactly.
//
//   Pass B (per shard; real machine work) — step 4's fold
//     s = combine(R, s) with R = P0[cluster] (class 0) / P1[cluster]
//     (class 1), and step 5's class-1 fold s = combine(G0, s); then the
//     shard's result slice streams to the sink.
//
// Spilling runs write each shard's s slice out of core between the passes
// (sim/shard.hpp's memory model); everything else is identical.
//
// When even one shard's working set exceeds the budget the run goes fully
// out of core: s and the compact totals live in the spill file and every
// synchronous cycle (and every Pass B step) streams them through one
// cluster-aligned window sized by the budget. Cycle-synchrony
// within the shard is a fidelity contract — each cycle's sweep completes
// over the whole shard before the next begins — so cycle i streams s plus
// the shard_n/2^i compact totals, minus the window the previous cycle
// ended on: window order reverses every cycle, so that window starts the
// next one without leaving the buffer. Adding shards until the working
// set fits the budget is what buys the streaming back. Results, Counters
// and edge loads stay bit-identical (the streamed sweeps book through the
// same machine primitives); only the sink granularity changes, from one
// call per shard to one per window.
//
// The three regimes (resident, spilling, out of core) differ only in
// where s lives between the passes and how much of a shard one sweep
// holds, so they share one spill layout and one helper for each of input
// staging, cluster totals, s I/O and the step-4 and step-5 folds.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cube_prefix.hpp"
#include "core/ops.hpp"
#include "sim/shard.hpp"

namespace dc::core {

namespace detail {

/// Prefix values the sharded engine's fused sweeps take (out-of-core
/// windows stream them through the spill file as raw bytes). Everything
/// else (heap-owning monoids like strings) interprets every cycle.
template <typename V>
inline constexpr bool kPlaneEligible =
    std::is_trivially_copyable_v<V> && std::is_default_constructible_v<V>;

}  // namespace detail

/// Runs Algorithm 2 on the sharded engine, streaming inputs and outputs.
/// `data_of(i)` returns the i-th input (global data index order, exactly
/// dual_prefix's `data[i]`); `sink(base, values, count)` receives finished
/// runs — prefixes for data indices [base, base+count) — in ascending base
/// order, tiling [0, N) exactly once: one call per shard, or one per
/// cluster-aligned window when the run streams out of core. The run
/// pointer is only valid during the call. Results, Counters and edge loads are
/// bit-identical to dual_prefix on a flat machine.
template <Monoid M, typename DataFn, typename SinkFn>
  requires std::invocable<DataFn&, dc::u64> &&
           std::invocable<SinkFn&, dc::u64, const typename M::value_type*,
                          std::size_t>
void sharded_dual_prefix(sim::ShardEngine& eng, const M& op, DataFn&& data_of,
                         SinkFn&& sink, bool inclusive = true) {
  using V = typename M::value_type;
  const net::ShardPlan& plan = eng.plan();
  const unsigned w = plan.order() - 1;
  const dc::u64 total_nodes = eng.node_count();
  const dc::u64 shard_n = eng.shard_nodes();
  const dc::u64 csize = plan.cluster_size();
  const dc::u64 per_class = csize;  // clusters per class = 2^(n-1) = csize

  auto& scr = eng.template scratch<V>();
  eng.begin_run(sizeof(V), std::is_trivially_copyable_v<V>);
  const bool spill = eng.spilling();
  const bool oc = eng.out_of_core_run();
  const dc::u64 win =
      oc ? static_cast<dc::u64>(eng.oc_window_nodes(sizeof(V))) : shard_n;
  const dc::u64 windows = (shard_n + win - 1) / win;  // per shard
  scr.t.resize(static_cast<std::size_t>(win));
  scr.s.resize(
      static_cast<std::size_t>(oc ? win : (spill ? shard_n : total_nodes)));
  scr.totals0.resize(static_cast<std::size_t>(per_class));
  scr.totals1.resize(static_cast<std::size_t>(per_class));
  scr.prefix0.resize(static_cast<std::size_t>(per_class));
  scr.prefix1.resize(static_cast<std::size_t>(per_class));

  // Path selection: the fused path needs a plane-eligible payload, no
  // hot-spot accounting (shard machines replay no compiled cycle, so there
  // are no CSR edge slots to book) and the compiled schedule path (faulty
  // machines report interpreted); otherwise every cycle interprets through
  // comm_cycle with full validation.
  const bool fused =
      detail::kPlaneEligible<V> && !eng.edge_load_enabled() &&
      eng.machine(0).schedule_path() == sim::SchedulePath::kCompiled;
  if (oc && !fused) {
    throw sim::SimError(
        "out-of-core streaming requires the fused exchange path "
        "(plane-eligible payload, compiled schedule path, no edge "
        "loads); raise the budget otherwise");
  }

  // The spill file holds s by global data index at [0, N*e): a spilling
  // run's shard slice and an out-of-core run's windows are the same bytes.
  // Out-of-core compact totals follow at [N*e, 2N*e) (t_offset below).
  const auto write_s = [&](dc::u64 i, const V* s, dc::u64 len) {
    eng.spill_write_at(i * sizeof(V), s,
                       static_cast<std::size_t>(len) * sizeof(V));
  };
  const auto read_s = [&](dc::u64 i, V* s, dc::u64 len) {
    eng.spill_read_at(i * sizeof(V), s,
                      static_cast<std::size_t>(len) * sizeof(V));
  };
  // Step 1's inputs for data indices [i, i + len): t = c, and s = c
  // (inclusive) or the identity (diminished).
  const auto stage = [&](dc::u64 i, V* t, V* s, dc::u64 len) {
    for (dc::u64 j = 0; j < len; ++j) {
      t[j] = data_of(i + j);
      s[j] = inclusive ? t[j] : op.identity();
    }
  };
  // Step 1's result for the compact exchange: the totals of a shard's
  // local clusters [c0, c0 + count), cluster c0 + j's at t[j * step] —
  // step 1 where the compact kernel ran over a whole window, csize where
  // it ran per cluster or the interpreted pass left t cluster-uniform.
  const auto take_totals = [&](const auto& clusters, dc::u64 c0,
                               dc::u64 count, const V* t, dc::u64 step) {
    for (dc::u64 j = 0; j < count; ++j) {
      const auto& cr = clusters[static_cast<std::size_t>(c0 + j)];
      (cr.cls == 0 ? scr.totals0
                   : scr.totals1)[static_cast<std::size_t>(cr.cluster)] =
          t[j * step];
    }
  };

  // ---- Pass A: step 1 (in-cluster inclusive/diminished prefix) --------
  for (unsigned k = 0; k < eng.shard_count(); ++k) {
    sim::Machine& mach = eng.machine(k);
    const auto& clusters = plan.shard_clusters(k);
    const dc::u64 data_base = dc::u64{k} * shard_n;
    if (oc) {
      // Out-of-core pass: every cycle streams the whole shard's s and
      // compact totals through the window — the sweep is cluster-local
      // (stride < cluster size <= window), so windows are independent
      // within a cycle. Cycle 0 stages the inputs in place of a read; the
      // last cycle extracts the cluster totals and retires t (dead
      // afterwards), writing every window's s back. Cycles alternate
      // ascending and descending window order, so the window one cycle
      // ends on starts the next and never leaves the buffer. T_m (one
      // total per 2^m-node group, written by cycle m-1) sits at the low
      // end of the shard's totals region for odd m and at the high end
      // for even m: an ascending cycle compacts towards the start, a
      // descending one towards the end, so no window's write reaches T
      // entries a later window of the same cycle still reads.
      V* const t_win = scr.t.data();
      V* const s_win = scr.s.data();
      const auto t_offset = [&](unsigned m, dc::u64 ws) {
        const dc::u64 base = m % 2 == 1 ? 0 : shard_n - (shard_n >> m);
        return (total_nodes + data_base + base + (ws >> m)) * sizeof(V);
      };
      for (unsigned i = 0; i < w; ++i) {
        const dc::u64 stride = dc::u64{1} << i;
        mach.comm_compute_cycle_fused_blocks(1, [&](std::size_t,
                                                    std::size_t) {
          for (dc::u64 x = 0; x < windows; ++x) {
            const dc::u64 ws = (i % 2 == 0 ? x : windows - 1 - x) * win;
            const dc::u64 len = std::min(win, shard_n - ws);
            if (i == 0) {
              stage(data_base + ws, t_win, s_win, len);
            } else if (x > 0) {
              eng.spill_read_at(t_offset(i, ws), t_win,
                                static_cast<std::size_t>(len >> i) *
                                    sizeof(V));
              read_s(data_base + ws, s_win, len);
            }
            detail::cube_prefix_compact(op, t_win, s_win, len, stride);
            if (i + 1 == w) {
              take_totals(clusters, ws / csize, len / csize, t_win, 1);
              write_s(data_base + ws, s_win, len);
            } else if (x + 1 < windows) {
              eng.spill_write_at(t_offset(i + 1, ws), t_win,
                                 static_cast<std::size_t>(len >> (i + 1)) *
                                     sizeof(V));
              write_s(data_base + ws, s_win, len);
            }
          }
          mach.add_ops(detail::cube_prefix_step_ops(shard_n));
        });
      }
      if (w == 0) {  // degenerate D_1: no cycles; stage and retire directly
        for (dc::u64 ws = 0; ws < shard_n; ws += win) {
          const dc::u64 len = std::min(win, shard_n - ws);
          stage(data_base + ws, t_win, s_win, len);
          take_totals(clusters, ws / csize, len / csize, t_win, 1);
          write_s(data_base + ws, s_win, len);
        }
      }
      eng.after_shard_pass(k);
      continue;
    }
    V* const t_sl = scr.t.data();
    V* const s_sl = spill ? scr.s.data() : scr.s.data() + k * shard_n;
    mach.for_each_node([&](net::NodeId l) {
      stage(data_base + l, t_sl + l, s_sl + l, 1);
    });
    for (unsigned i = 0; i < w; ++i) {
      // Bit i of the local node-ID field (the low n-1 bits) is the flipped
      // label bit — the same test dual_prefix makes on the global label's
      // node-ID field of either class. The fused path runs the compact
      // kernel in place, one cluster at a time (each cluster's totals
      // compact within its own slice of t, so the pool's block split stays
      // race-free), while the model still charges the 3 per-pair
      // applications of the unfused step.
      if (fused) {
        const dc::u64 stride = dc::u64{1} << i;
        mach.comm_compute_cycle_fused_blocks(
            static_cast<std::size_t>(plan.clusters_per_shard()),
            [&](std::size_t b_lo, std::size_t b_hi) {
              for (dc::u64 c = b_lo * csize; c < b_hi * csize; c += csize)
                detail::cube_prefix_compact(op, t_sl + c, s_sl + c, csize,
                                            stride);
              mach.add_ops(
                  detail::cube_prefix_step_ops((b_hi - b_lo) * csize));
            });
        continue;
      }
      auto inbox = mach.comm_cycle<V>(
          [&](net::NodeId l) -> std::optional<sim::Send<V>> {
            return sim::Send<V>{
                static_cast<net::NodeId>(l ^ (dc::u64{1} << i)), t_sl[l]};
          });
      // A message a degrade-policy drop window lost folds as the identity.
      const V lost = op.identity();
      mach.compute_step([&](net::NodeId l) {
        mach.add_ops(detail::cube_prefix_step(op, dc::bits::get(l, i) == 1,
                                              inbox[l] ? *inbox[l] : lost,
                                              t_sl[l], s_sl[l]));
      });
    }
    // After the full pass local node 0 of each cluster holds its total
    // (the compact kernel's one remaining entry; the interpreted path
    // leaves t cluster-uniform), everything the compact exchange needs.
    take_totals(clusters, 0, clusters.size(), t_sl, csize);
    if (spill) write_s(data_base, s_sl, shard_n);
    eng.after_shard_pass(k);
  }

  // ---- Compact exchange: steps 2-3 as per-class scans -----------------
  // Buffer traffic: both classes' totals in, both prefix vectors plus the
  // class-0 grand total back out.
  eng.begin_exchange_phase((2 * static_cast<std::size_t>(plan.clusters_total()) + 1) *
                           sizeof(V));
  V run0 = op.identity();
  for (dc::u64 m = 0; m < per_class; ++m) {
    scr.prefix0[static_cast<std::size_t>(m)] = run0;
    run0 = op.combine(run0, scr.totals0[static_cast<std::size_t>(m)]);
  }
  const V g0 = run0;  // class-0 grand total (step 5's prepend value)
  V run1 = op.identity();
  for (dc::u64 j = 0; j < per_class; ++j) {
    scr.prefix1[static_cast<std::size_t>(j)] = run1;
    run1 = op.combine(run1, scr.totals1[static_cast<std::size_t>(j)]);
  }
  eng.end_exchange_phase();

  // Step 4 over a shard's local nodes [lo, hi), whose s starts at `s`: one
  // contiguous run per cluster folds R = P0[cluster] (class 0) or
  // P1[cluster] (class 1) in on the left.
  const auto fold_step4 = [&](const auto& clusters, dc::u64 lo, dc::u64 hi,
                              V* s) {
    for (dc::u64 l = lo; l < hi;) {
      const dc::u64 end = std::min(hi, ((l >> w) + 1) << w);
      const auto& cr = clusters[static_cast<std::size_t>(l >> w)];
      const V& r = (cr.cls == 0 ? scr.prefix0 : scr.prefix1)
          [static_cast<std::size_t>(cr.cluster)];
      for (; l < end; ++l) s[l - lo] = op.combine(r, s[l - lo]);
    }
  };
  // Step 5 over the same range: class-1 clusters prepend the class-0
  // grand total. Returns the nodes folded, for add_ops.
  const auto fold_step5 = [&](const auto& clusters, dc::u64 lo, dc::u64 hi,
                              V* s) {
    dc::u64 folded = 0;
    for (dc::u64 l = lo; l < hi;) {
      const dc::u64 end = std::min(hi, ((l >> w) + 1) << w);
      if (clusters[static_cast<std::size_t>(l >> w)].cls == 1) {
        for (dc::u64 j = l; j < end; ++j)
          s[j - lo] = op.combine(g0, s[j - lo]);
        folded += end - l;
      }
      l = end;
    }
    return folded;
  };

  // ---- Pass B: steps 4-5 and result emission --------------------------
  for (unsigned k = 0; k < eng.shard_count(); ++k) {
    sim::Machine& mach = eng.machine(k);
    const auto& clusters = plan.shard_clusters(k);
    const dc::u64 data_base = dc::u64{k} * shard_n;
    if (oc) {
      // Streamed steps 4 and 5: each is one whole-shard computation step
      // (step-synchrony is kept, like cycle-synchrony above), so each
      // streams s through the window separately. Step 4 runs backward and
      // leaves window 0 resident, unwritten; step 5 starts on it, since it
      // hands the finished windows to the sink in ascending order, so s is
      // never written back.
      V* const s_win = scr.s.data();
      mach.compute_step_streamed([&](std::size_t, std::size_t) {
        for (dc::u64 x = windows; x-- > 0;) {
          const dc::u64 ws = x * win;
          const dc::u64 len = std::min(win, shard_n - ws);
          read_s(data_base + ws, s_win, len);
          fold_step4(clusters, ws, ws + len, s_win);
          if (x > 0) write_s(data_base + ws, s_win, len);
        }
        mach.add_ops(shard_n);
      });
      mach.compute_step_streamed([&](std::size_t, std::size_t) {
        for (dc::u64 ws = 0; ws < shard_n; ws += win) {
          const dc::u64 len = std::min(win, shard_n - ws);
          if (ws > 0) read_s(data_base + ws, s_win, len);
          mach.add_ops(fold_step5(clusters, ws, ws + len, s_win));
          sink(data_base + ws, static_cast<const V*>(s_win),
               static_cast<std::size_t>(len));
        }
      });
      eng.after_shard_pass(k);
      continue;
    }
    V* const s_sl = spill ? scr.s.data() : scr.s.data() + k * shard_n;
    if (spill) read_s(data_base, s_sl, shard_n);
    mach.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
      fold_step4(clusters, lo, hi, s_sl + lo);
      mach.add_ops(hi - lo);
    });
    mach.compute_step_chunked([&](std::size_t lo, std::size_t hi) {
      mach.add_ops(fold_step5(clusters, lo, hi, s_sl + lo));
    });
    sink(data_base, static_cast<const V*>(s_sl),
         static_cast<std::size_t>(shard_n));
    eng.after_shard_pass(k);
  }

  // Virtualized model costs of steps 2-5's communication and step 3's
  // computation (Pass B's folds were real): the two cross-edge cycles and
  // the n-1 distribution cycles move one message per node each; step 3's
  // n-1 Cube_prefix steps are charged like any other.
  eng.end_run(/*comm_cycles=*/dc::u64{w} + 2,
              /*messages=*/(dc::u64{w} + 2) * total_nodes,
              /*comp_steps=*/w,
              /*ops=*/dc::u64{w} * detail::cube_prefix_step_ops(total_nodes));
}

/// Convenience form: whole-vector input and output, exactly dual_prefix's
/// signature shape. Still runs the streaming engine underneath (and spills
/// if the engine's budget demands it); use the streaming form when even
/// the input or output vector must not be materialized.
template <Monoid M>
std::vector<typename M::value_type> sharded_dual_prefix(
    sim::ShardEngine& eng, const M& op,
    const std::vector<typename M::value_type>& data, bool inclusive = true) {
  using V = typename M::value_type;
  DC_REQUIRE(data.size() == eng.node_count(), "one input per node required");
  std::vector<V> out(data.size(), op.identity());
  sharded_dual_prefix(
      eng, op, [&](dc::u64 i) -> const V& { return data[i]; },
      [&](dc::u64 base, const V* values, std::size_t count) {
        std::copy(values, values + count,
                  out.begin() + static_cast<std::ptrdiff_t>(base));
      },
      inclusive);
  return out;
}

}  // namespace dc::core
