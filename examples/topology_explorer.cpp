// Topology explorer: prints the structure of a dual-cube (Figures 1-2), its
// recursive construction (Figure 4), measured graph properties, and a few
// shortest routes — everything a user needs to get a feel for the network.
//
//   ./topology_explorer [--n=2] [--routes=4]
#include <iostream>

#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "topology/describe.hpp"
#include "topology/graph.hpp"
#include "topology/hamiltonian.hpp"
#include "topology/routing.hpp"

int main(int argc, char** argv) try {
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 2));
  const unsigned routes = static_cast<unsigned>(cli.get_int("routes", 4));
  cli.finish();

  const dc::net::DualCube d(n);
  const dc::net::RecursiveDualCube r(n);

  std::cout << dc::net::describe_dual_cube(d) << "\n";
  std::cout << dc::net::describe_recursive_construction(r) << "\n";

  const auto stats = dc::net::distance_stats(d);
  dc::Table t("measured properties of " + d.name());
  t.header({"property", "value"});
  t.add("nodes", d.node_count());
  t.add("links", d.edge_count());
  t.add("degree", d.order());
  t.add("diameter (BFS)", stats.diameter);
  t.add("diameter (formula 2n)", d.diameter());
  t.add("average distance", stats.average);
  t.add("connected", dc::net::is_connected(d));
  t.add("bipartite", dc::net::is_bipartite(d));
  t.add("uniform distance profile", dc::net::has_uniform_distance_profile(d));
  std::cout << t << "\n";

  std::cout << "sample shortest routes (cluster routing):\n";
  dc::Rng rng(5);
  for (unsigned i = 0; i < routes; ++i) {
    const auto src = static_cast<dc::net::NodeId>(rng.below(d.node_count()));
    const auto dst = static_cast<dc::net::NodeId>(rng.below(d.node_count()));
    const auto path = dc::net::route_dual_cube(d, src, dst);
    std::cout << "  ";
    for (std::size_t h = 0; h < path.size(); ++h) {
      std::cout << dc::bits::to_binary(path[h], d.label_bits());
      if (h + 1 < path.size()) std::cout << " -> ";
    }
    std::cout << "   (" << path.size() - 1 << " hops, distance formula says "
              << d.distance(src, dst) << ")\n";
  }

  if (n >= 2) {
    const auto ring = dc::net::dual_cube_hamiltonian_cycle(d);
    std::cout << "\nring embedding (Hamiltonian cycle, dilation 1), "
              << ring.size() << " nodes:\n  ";
    const std::size_t shown = std::min<std::size_t>(ring.size(), 16);
    for (std::size_t i = 0; i < shown; ++i)
      std::cout << dc::bits::to_binary(ring[i], d.label_bits())
                << (i + 1 < shown ? " " : "");
    if (shown < ring.size()) std::cout << " ...";
    std::cout << "\n  valid: "
              << (dc::net::is_hamiltonian_cycle(d, ring) ? "yes" : "NO")
              << "\n";
  }
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
