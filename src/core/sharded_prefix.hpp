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
//     fidelity) over the shard's t/s slices. The fused sweeps run the
//     compact kernel (detail::cube_prefix_compact): after dimension i
//     every node of a 2^(i+1)-node subcube holds the same total, so t
//     keeps one entry per subcube instead of one per node. After the
//     pass, each cluster's total sits at its local node 0 on either path
//     — the entire contribution the shard ever sends across cluster
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
// out of core: the compact totals and s live in two regions of the spill
// file and every synchronous cycle (and every Pass B step) streams them
// through one cluster-aligned window sized by the budget. Cycle-synchrony
// within the shard is a fidelity contract — each cycle's sweep completes
// over the whole shard before the next begins — so cycle i streams s plus
// the shard_n/2^i compact totals, minus the window the previous cycle
// ended on: window order reverses every cycle, so that window starts the
// next one without leaving the buffer. Adding shards until the working
// set fits the budget is what buys the streaming back. Results, Counters
// and edge loads stay bit-identical (the streamed sweeps book through the
// same machine primitives); only the sink granularity changes, from one
// call per shard to one per window.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

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

/// One Cube_prefix exchange + computation step on compact totals, in
/// place, over `len` nodes: `t` holds one total per `stride`-node group
/// (len / stride entries; at stride 1, the inputs). Each group pair's new
/// total is t_lo ⊕ t_hi, stored at the pair's index, and every node of
/// the high group folds the low total into its prefix: s = t_lo ⊕ s. On
/// return t holds one total per 2·stride-node group in its first
/// len / (2·stride) entries. This is cube_prefix_butterfly with the
/// per-node t copies collapsed — after dimension i every node of a
/// 2^(i+1)-node subcube holds the same total — so values and operand
/// order are the same. Callers charge the 3 combines per node pair the
/// unfused step applies.
template <Monoid M>
void cube_prefix_compact(const M& op, typename M::value_type* t,
                         typename M::value_type* s, dc::u64 len,
                         dc::u64 stride) {
  using V = typename M::value_type;
  for (dc::u64 g = 0; g < len / stride; g += 2) {
    const V lo = t[g];
    V* const sh = s + (g + 1) * stride;
    for (dc::u64 j = 0; j < stride; ++j) sh[j] = op.combine(lo, sh[j]);
    t[g / 2] = op.combine(lo, t[g + 1]);
  }
}

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
  DC_REQUIRE(!oc || fused,
             "out-of-core streaming requires the fused exchange path "
             "(plane-eligible payload, compiled schedule path, no edge "
             "loads); raise the budget otherwise");

  // ---- Pass A: step 1 (in-cluster inclusive/diminished prefix) --------
  for (unsigned k = 0; k < eng.shard_count(); ++k) {
    sim::Machine& mach = eng.machine(k);
    const dc::u64 data_base = dc::u64{k} * shard_n;
    if (oc) {
      // Out-of-core pass: the shard's compact totals and its s live in two
      // spill-file regions ([0, N*e) and [N*e, 2N*e), global data-index
      // offsets) and every cycle streams the whole shard through the
      // window — the sweep is cluster-local (stride < cluster size <=
      // window), so windows are independent within a cycle. Cycle 0
      // generates the inputs in place of a read; the last cycle extracts
      // the cluster totals and retires t (dead afterwards), writing every
      // window's s back. Cycles alternate ascending and descending window
      // order, so the window one cycle ends on starts the next and never
      // leaves the buffer. T_m (one total per 2^m-node group, written by
      // cycle m-1) sits at the low end of the shard's t region for odd m
      // and at the high end for even m: an ascending cycle compacts
      // towards the start, a descending one towards the end, so no
      // window's write reaches T entries a later window of the same cycle
      // still reads.
      V* const t_win = scr.t.data();
      V* const s_win = scr.s.data();
      const dc::u64 s_region = total_nodes * sizeof(V);
      const auto& clusters = plan.shard_clusters(k);
      const auto t_offset = [&](unsigned m, dc::u64 ws) {
        const dc::u64 base = m % 2 == 1 ? 0 : shard_n - (shard_n >> m);
        return (data_base + base + (ws >> m)) * sizeof(V);
      };
      const auto stage_window = [&](dc::u64 ws, dc::u64 len) {
        for (dc::u64 j = 0; j < len; ++j)
          t_win[j] = data_of(data_base + ws + j);
        if (inclusive) {
          for (dc::u64 j = 0; j < len; ++j) s_win[j] = t_win[j];
        } else {
          for (dc::u64 j = 0; j < len; ++j) s_win[j] = op.identity();
        }
      };
      const auto take_totals = [&](dc::u64 ws, dc::u64 len) {
        for (dc::u64 cb = ws / csize; cb < (ws + len) / csize; ++cb) {
          const auto& cr = clusters[static_cast<std::size_t>(cb)];
          (cr.cls == 0 ? scr.totals0
                       : scr.totals1)[static_cast<std::size_t>(cr.cluster)] =
              t_win[cb - ws / csize];
        }
      };
      const auto write_s = [&](dc::u64 ws, dc::u64 len) {
        eng.spill_write_at(s_region + (data_base + ws) * sizeof(V), s_win,
                           static_cast<std::size_t>(len) * sizeof(V));
      };
      for (unsigned i = 0; i < w; ++i) {
        const dc::u64 stride = dc::u64{1} << i;
        mach.comm_compute_cycle_fused_blocks(1, [&](std::size_t,
                                                    std::size_t) {
          for (dc::u64 x = 0; x < windows; ++x) {
            const dc::u64 ws = (i % 2 == 0 ? x : windows - 1 - x) * win;
            const dc::u64 len = std::min(win, shard_n - ws);
            if (i == 0) {
              stage_window(ws, len);
            } else if (x > 0) {
              eng.spill_read_at(t_offset(i, ws), t_win,
                                static_cast<std::size_t>(len >> i) *
                                    sizeof(V));
              eng.spill_read_at(s_region + (data_base + ws) * sizeof(V),
                                s_win,
                                static_cast<std::size_t>(len) * sizeof(V));
            }
            detail::cube_prefix_compact(op, t_win, s_win, len, stride);
            if (i + 1 == w) {
              take_totals(ws, len);
              write_s(ws, len);
            } else if (x + 1 < windows) {
              eng.spill_write_at(t_offset(i + 1, ws), t_win,
                                 static_cast<std::size_t>(len >> (i + 1)) *
                                     sizeof(V));
              write_s(ws, len);
            }
          }
          mach.add_ops(shard_n / 2 * 3);
        });
      }
      if (w == 0) {  // degenerate D_1: no cycles; stage and retire directly
        for (dc::u64 ws = 0; ws < shard_n; ws += win) {
          const dc::u64 len = std::min(win, shard_n - ws);
          stage_window(ws, len);
          take_totals(ws, len);
          write_s(ws, len);
        }
      }
      eng.after_shard_pass(k);
      continue;
    }
    V* const t_sl = scr.t.data();
    V* const s_sl = spill ? scr.s.data() : scr.s.data() + k * shard_n;
    mach.for_each_node(
        [&](net::NodeId l) { t_sl[l] = data_of(data_base + l); });
    if (inclusive) {
      mach.for_each_node([&](net::NodeId l) { s_sl[l] = t_sl[l]; });
    } else {
      mach.for_each_node([&](net::NodeId l) { s_sl[l] = op.identity(); });
    }
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
              mach.add_ops((b_hi - b_lo) * csize / 2 * 3);
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
        const V& temp = inbox[l] ? *inbox[l] : lost;
        if (dc::bits::get(l, i) == 1) {
          s_sl[l] = op.combine(temp, s_sl[l]);
          t_sl[l] = op.combine(temp, t_sl[l]);
          mach.add_ops(2);
        } else {
          t_sl[l] = op.combine(t_sl[l], temp);
          mach.add_ops(1);
        }
      });
    }
    // After the full pass local node 0 of each block holds its cluster's
    // total (the compact kernel's one remaining entry; the interpreted
    // path leaves t cluster-uniform), everything the compact exchange
    // needs.
    const auto& clusters = plan.shard_clusters(k);
    for (std::size_t cb = 0; cb < clusters.size(); ++cb) {
      const auto& cr = clusters[cb];
      (cr.cls == 0 ? scr.totals0
                   : scr.totals1)[static_cast<std::size_t>(cr.cluster)] =
          t_sl[cb * csize];
    }
    if (spill) {
      eng.spill_write(k, s_sl,
                      static_cast<std::size_t>(shard_n) * sizeof(V));
    }
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

  // ---- Pass B: steps 4-5 and result emission --------------------------
  for (unsigned k = 0; k < eng.shard_count(); ++k) {
    sim::Machine& mach = eng.machine(k);
    const auto& clusters = plan.shard_clusters(k);
    if (oc) {
      // Streamed steps 4 and 5: each is one whole-shard computation step
      // (step-synchrony is kept, like cycle-synchrony above), so each
      // streams the s region through the window separately. Step 4 runs
      // backward and leaves window 0 resident, unwritten; step 5 starts
      // on it, since it hands the finished windows to the sink in
      // ascending order, so s is never written back.
      V* const s_win = scr.s.data();
      const dc::u64 s_region = total_nodes * sizeof(V);
      const dc::u64 data_base = dc::u64{k} * shard_n;
      mach.compute_step_streamed([&](std::size_t, std::size_t) {
        for (dc::u64 x = windows; x-- > 0;) {
          const dc::u64 ws = x * win;
          const dc::u64 len = std::min(win, shard_n - ws);
          const dc::u64 off = s_region + (data_base + ws) * sizeof(V);
          const std::size_t bytes = static_cast<std::size_t>(len) * sizeof(V);
          eng.spill_read_at(off, s_win, bytes);
          for (dc::u64 cb = ws / csize; cb < (ws + len) / csize; ++cb) {
            const auto& cr = clusters[static_cast<std::size_t>(cb)];
            const V& r =
                cr.cls == 0
                    ? scr.prefix0[static_cast<std::size_t>(cr.cluster)]
                    : scr.prefix1[static_cast<std::size_t>(cr.cluster)];
            V* const sv = s_win + (cb - ws / csize) * csize;
            for (dc::u64 j = 0; j < csize; ++j) sv[j] = op.combine(r, sv[j]);
          }
          if (x > 0) eng.spill_write_at(off, s_win, bytes);
        }
        mach.add_ops(shard_n);
      });
      mach.compute_step_streamed([&](std::size_t, std::size_t) {
        for (dc::u64 ws = 0; ws < shard_n; ws += win) {
          const dc::u64 len = std::min(win, shard_n - ws);
          if (ws > 0) {
            eng.spill_read_at(s_region + (data_base + ws) * sizeof(V), s_win,
                              static_cast<std::size_t>(len) * sizeof(V));
          }
          dc::u64 folded = 0;
          for (dc::u64 cb = ws / csize; cb < (ws + len) / csize; ++cb) {
            if (clusters[static_cast<std::size_t>(cb)].cls != 1) continue;
            V* const sv = s_win + (cb - ws / csize) * csize;
            for (dc::u64 j = 0; j < csize; ++j) sv[j] = op.combine(g0, sv[j]);
            folded += csize;
          }
          mach.add_ops(folded);
          sink(data_base + ws, static_cast<const V*>(s_win),
               static_cast<std::size_t>(len));
        }
      });
      eng.after_shard_pass(k);
      continue;
    }
    V* const s_sl = spill ? scr.s.data() : scr.s.data() + k * shard_n;
    if (spill) {
      eng.spill_read(k, s_sl, static_cast<std::size_t>(shard_n) * sizeof(V));
    }
    mach.compute_step([&](net::NodeId l) {
      const auto& cr = clusters[static_cast<std::size_t>(l >> w)];
      const V& r = cr.cls == 0
                       ? scr.prefix0[static_cast<std::size_t>(cr.cluster)]
                       : scr.prefix1[static_cast<std::size_t>(cr.cluster)];
      s_sl[l] = op.combine(r, s_sl[l]);
      mach.add_ops(1);
    });
    mach.compute_step([&](net::NodeId l) {
      if (clusters[static_cast<std::size_t>(l >> w)].cls == 1) {
        s_sl[l] = op.combine(g0, s_sl[l]);
        mach.add_ops(1);
      }
    });
    sink(dc::u64{k} * shard_n, static_cast<const V*>(s_sl),
         static_cast<std::size_t>(shard_n));
    eng.after_shard_pass(k);
  }

  // Virtualized model costs of steps 2-5's communication and step 3's
  // computation (Pass B's folds were real): the two cross-edge cycles and
  // the n-1 distribution cycles move one message per node each; step 3's
  // n-1 compute steps apply 2 ops on set-bit nodes and 1 on the rest —
  // exactly half the nodes each, so 3N/2 per step.
  eng.end_run(/*comm_cycles=*/dc::u64{w} + 2,
              /*messages=*/(dc::u64{w} + 2) * total_nodes,
              /*comp_steps=*/w,
              /*ops=*/dc::u64{w} * (total_nodes / 2) * 3);
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
