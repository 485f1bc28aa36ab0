// The dcbench workload table. Plain data: the parent process reads it
// without ever touching the simulator library, so this header includes
// nothing from ../src. Why each workload exists is recorded in
// BENCHMARK.json and benchmark/README.md.
#pragma once

#include <cstddef>
#include <string_view>

namespace dcbench {

enum class Kind {
  kPrefix,   ///< core::dual_prefix on D_n, u64 Plus
  kSort,     ///< core::dual_sort (width 1) or core::block_sort (width > 1) on RD_n
  kSharded,  ///< core::sharded_dual_prefix on D_n through a budgeted ShardEngine
};

struct Workload {
  const char* name;
  Kind kind;
  unsigned order;      ///< n of D_n / RD_n
  std::size_t width;   ///< keys per node (sorts); 1 otherwise
  unsigned threads;    ///< DC_THREADS given to every child (pool workers)
  unsigned shards;     ///< ShardEngine K (sharded only)
  double tail_q;       ///< run_ms_tail quantile: the highest with >= 10
                       ///< samples beyond it at a 20 s run
  unsigned trace_ops;  ///< ops per side (traced / untraced) in a traced run
};

// DC_THREADS counts pool workers; the caller participates too, so
// threads = 1 runs every loop inline and threads = 3 is 4 threads in all.
inline constexpr Workload kWorkloads[] = {
    {"prefix_d8_t1", Kind::kPrefix, 8, 1, 1, 0, 0.99, 150},
    // Few traced ops: about 2% of its ops stall or crash at this commit,
    // and a traced group only counts when one child finishes it.
    {"prefix_d8_t4", Kind::kPrefix, 8, 1, 3, 0, 0.99, 10},
    {"sort_rd7_t1", Kind::kSort, 7, 1, 1, 0, 0.99, 100},
    {"blocksort_rd4_w256_t1", Kind::kSort, 4, 256, 1, 0, 0.99, 150},
    {"sharded_d11_k2_ooc", Kind::kSharded, 11, 1, 1, 2, 0.90, 12},
};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

}  // namespace dcbench
