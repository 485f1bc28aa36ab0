// Distributed sort of a dataset far larger than the machine: N nodes, m
// keys per node (the paper's future-work item 1), using the block
// generalization of Algorithm 3 (local sort + merge-split bitonic network).
//
//   ./distributed_sort [--n=3] [--block=1024] [--dist=uniform]
#include <chrono>
#include <iostream>

#include "core/block_sort.hpp"
#include "core/formulas.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 3));
  const std::size_t block = static_cast<std::size_t>(cli.get_int("block", 1024));
  const std::string dist_name = cli.get_string("dist", "uniform");
  cli.finish();

  dc::KeyDistribution dist = dc::KeyDistribution::kUniform;
  for (const auto d : dc::all_key_distributions())
    if (dc::to_string(d) == dist_name) dist = d;

  const dc::net::RecursiveDualCube r(n);
  dc::sim::Machine m(r);
  const std::size_t total = r.node_count() * block;

  auto data = dc::generate_keys(dist, total, /*seed=*/1);
  std::cout << "sorting " << total << " keys (" << dc::to_string(dist)
            << ") on " << r.name() << " with " << block << " keys/node\n";

  const auto start = std::chrono::steady_clock::now();
  dc::core::block_sort(m, r, data, block);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  const bool ok = std::is_sorted(data.begin(), data.end());
  const auto c = m.counters();
  dc::Table t("result");
  t.header({"metric", "value"});
  t.add("sorted", ok);
  t.add("keys", total);
  t.add("comm cycles", c.comm_cycles);
  t.add("comm cycles (Theorem 2 exact, scalar)",
        dc::core::formulas::dual_sort_comm_exact(n));
  t.add("parallel comparison steps", c.comp_steps);
  t.add("total key operations", c.ops);
  t.add("simulator wall time (s)", elapsed);
  t.add("keys/s through the simulator",
        elapsed > 0 ? static_cast<double>(total) / elapsed : 0.0);
  std::cout << t;
  DC_CHECK(ok, "block sort produced an unsorted sequence");
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
