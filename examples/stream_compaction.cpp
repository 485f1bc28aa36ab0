// Stream compaction on a dual-cube machine — the classic data-parallel use
// of prefix computation (Hillis & Steele, the paper's reference [3]).
//
// Every node holds one sensor reading; we keep only the readings above a
// threshold and pack the survivors densely into the low end of the index
// space. The enumeration step is exactly Algorithm 2 with ⊕ = + over 0/1
// flags: the inclusive prefix of the flags gives each survivor its output
// slot. The scatter then routes every survivor to its slot along shortest
// dual-cube paths, which we schedule store-and-forward under the 1-port
// model to show the whole pipeline stays inside the paper's machine model.
//
//   ./stream_compaction [--n=3] [--threshold=600]
#include <iostream>
#include <map>

#include "core/dual_prefix.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "topology/routing.hpp"

namespace {

using dc::u64;
using dc::net::NodeId;

/// Store-and-forward scatter: item i travels from `from[i]` to `to[i]`
/// along the dual-cube route, one hop per cycle, retrying when a link or
/// port is busy. Returns the number of cycles used.
u64 scatter(dc::sim::Machine& m, const dc::net::DualCube& d,
            const std::vector<NodeId>& from, const std::vector<NodeId>& to,
            const std::vector<u64>& payload, std::vector<u64>& out) {
  struct Item {
    std::vector<NodeId> path;  // remaining path, front = current node
    u64 value = 0;
    std::size_t slot = 0;
  };
  std::vector<Item> items;
  for (std::size_t i = 0; i < from.size(); ++i) {
    items.push_back({dc::net::route_dual_cube(d, from[i], to[i]), payload[i], i});
  }
  out.assign(from.size(), 0);

  u64 cycles = 0;
  for (;;) {
    bool any_pending = false;
    // Greedy per-cycle schedule: first pending item at each node wins the
    // send port; receive ports claimed first-come.
    std::map<NodeId, std::size_t> sender_of;   // current node -> item
    std::map<NodeId, bool> receiver_busy;
    std::vector<std::size_t> moving;
    for (std::size_t i = 0; i < items.size(); ++i) {
      auto& it = items[i];
      if (it.path.size() <= 1) continue;  // arrived
      any_pending = true;
      const NodeId here = it.path[0];
      const NodeId next = it.path[1];
      if (sender_of.count(here) || receiver_busy[next]) continue;
      sender_of[here] = i;
      receiver_busy[next] = true;
      moving.push_back(i);
    }
    if (!any_pending) break;
    DC_CHECK(!moving.empty(), "scatter deadlocked");
    auto inbox = m.comm_cycle<u64>(
        [&](NodeId u) -> std::optional<dc::sim::Send<u64>> {
          const auto it = sender_of.find(u);
          if (it == sender_of.end()) return std::nullopt;
          return dc::sim::Send<u64>{items[it->second].path[1],
                                    items[it->second].value};
        });
    (void)inbox;  // payloads tracked in `items`; the machine enforced ports
    for (const std::size_t i : moving) items[i].path.erase(items[i].path.begin());
    ++cycles;
  }
  for (const auto& it : items) out[it.slot] = it.value;
  return cycles;
}

}  // namespace

int main(int argc, char** argv) try {
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 3));
  const u64 threshold = static_cast<u64>(cli.get_int("threshold", 600));
  cli.finish();

  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  const std::size_t N = d.node_count();

  // Sensor readings, one per node (by global data index).
  dc::Rng rng(7);
  std::vector<u64> reading(N);
  for (auto& x : reading) x = rng.below(1000);

  // Flags + enumeration via Algorithm 2.
  const dc::core::Plus<u64> plus;
  std::vector<u64> flag(N);
  for (std::size_t i = 0; i < N; ++i) flag[i] = reading[i] > threshold ? 1 : 0;
  const auto slot_after = dc::core::dual_prefix(m, d, plus, flag);
  const u64 kept = slot_after.back();
  const auto prefix_counters = m.counters();

  // Scatter survivors to their packed slots.
  std::vector<NodeId> from;
  std::vector<NodeId> to;
  std::vector<u64> payload;
  for (std::size_t i = 0; i < N; ++i) {
    if (!flag[i]) continue;
    from.push_back(dc::core::dual_prefix_node_of_index(d, i));
    to.push_back(dc::core::dual_prefix_node_of_index(d, slot_after[i] - 1));
    payload.push_back(reading[i]);
  }
  std::vector<u64> packed;
  const u64 scatter_cycles = scatter(m, d, from, to, payload, packed);

  std::cout << "stream compaction on " << d.name() << " (" << N
            << " readings, threshold " << threshold << ")\n";
  std::cout << "  kept " << kept << " readings\n";
  std::cout << "  enumeration (Algorithm 2): " << prefix_counters.comm_cycles
            << " comm cycles\n";
  std::cout << "  scatter: " << scatter_cycles << " comm cycles\n";

  dc::Table t("first packed survivors");
  t.header({"slot", "reading"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, packed.size()); ++i)
    t.add(i, packed[i]);
  std::cout << t;

  // Self-check.
  std::size_t expect_slot = 0;
  for (std::size_t i = 0; i < N; ++i) {
    if (!flag[i]) continue;
    DC_CHECK(packed[expect_slot] == reading[i], "compaction mismatch");
    ++expect_slot;
  }
  DC_CHECK(expect_slot == kept, "compaction lost items");
  std::cout << "self-check passed: output is dense and order-preserving\n";
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
