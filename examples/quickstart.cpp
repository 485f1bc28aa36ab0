// Quickstart: build a dual-cube, run the paper's two algorithms on it, and
// read the step counters.
//
//   ./quickstart [--n=3]
#include <iostream>
#include <numeric>

#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/formulas.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) try {
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 3));
  cli.finish();

  // --- The network -------------------------------------------------------
  const dc::net::DualCube d(n);
  std::cout << "Dual-cube " << d.name() << ": " << d.node_count()
            << " nodes, " << d.order() << " links/node, diameter "
            << d.diameter() << "\n\n";

  // --- Parallel prefix (Algorithm 2) --------------------------------------
  {
    dc::sim::Machine machine(d);
    const dc::core::Plus<dc::u64> plus;
    std::vector<dc::u64> data(d.node_count());
    std::iota(data.begin(), data.end(), 1);  // 1, 2, 3, ...

    const auto prefix = dc::core::dual_prefix(machine, d, plus, data);

    std::cout << "prefix sums of 1.." << data.size() << ": " << prefix[0]
              << ", " << prefix[1] << ", " << prefix[2] << ", ..., "
              << prefix.back() << "\n";
    const auto c = machine.counters();
    std::cout << "  communication steps: " << c.comm_cycles
              << " (Theorem 1 bound: "
              << dc::core::formulas::dual_prefix_comm_paper(n) << ")\n";
    std::cout << "  computation steps:   " << c.comp_steps
              << " (Theorem 1 bound: "
              << dc::core::formulas::dual_prefix_comp(n) << ")\n\n";
  }

  // --- Sorting (Algorithm 3, on the recursive presentation) ---------------
  {
    const dc::net::RecursiveDualCube r(n);
    dc::sim::Machine machine(r);
    auto keys = dc::generate_keys(dc::KeyDistribution::kUniform,
                                  r.node_count(), /*seed=*/2026);
    dc::core::dual_sort(machine, r, keys);

    std::cout << "sorted " << keys.size() << " random keys: first "
              << keys.front() << ", last " << keys.back()
              << (std::is_sorted(keys.begin(), keys.end()) ? " (sorted)"
                                                           : " (BUG!)")
              << "\n";
    const auto c = machine.counters();
    std::cout << "  communication steps: " << c.comm_cycles
              << " (Theorem 2 bound: "
              << dc::core::formulas::dual_sort_comm_bound(n) << ")\n";
    std::cout << "  comparison steps:    " << c.comp_steps
              << " (Theorem 2 bound: "
              << dc::core::formulas::dual_sort_comp_bound(n) << ")\n";
  }
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
