// Step counters matching the paper's cost model.
//
// The paper's theorems bound two quantities under a synchronous, 1-port,
// bidirectional-channel model:
//   * communication steps — synchronous cycles in which every node sends at
//     most one message and receives at most one message, each over a real
//     link;
//   * computation steps — parallel rounds in which every node applies O(1)
//     binary operations (a ⊕ in prefix computation, a compare in sorting).
// The machine counts both, plus raw totals useful for sanity checks.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dc::sim {

struct Counters {
  std::uint64_t comm_cycles = 0;  ///< T_comm: synchronous communication steps
  std::uint64_t comp_steps = 0;   ///< T_comp: parallel computation steps
  std::uint64_t messages = 0;     ///< total messages delivered
  std::uint64_t ops = 0;          ///< total binary-op / compare applications

  // Fault accounting (all zero on a fault-free run; see sim/faults.hpp
  // and docs/MODEL.md "Fault model").
  std::uint64_t messages_lost = 0;      ///< dropped by faults (degrade/transient)
  std::uint64_t messages_rerouted = 0;  ///< carried on fault-detour paths
  std::uint64_t fault_cycles = 0;       ///< comm cycles with >= 1 active fault

  friend bool operator==(const Counters&, const Counters&) = default;
};

/// Per-directed-edge message counters for hot-spot analysis.
///
/// Counts live in one flat u64 array per worker slot, indexed by the CSR
/// edge slot of the directed edge (FlatAdjacency::edge_slot), so concurrent
/// delivery workers bump disjoint arrays with no synchronization and no
/// hashing; reads merge the arrays on demand. Sums are order-independent,
/// so the merged totals are deterministic no matter which worker delivered
/// which message. Messages that traverse a non-CSR pair (possible only with
/// link validation disabled) fall back to a mutex-guarded overflow map.
class EdgeLoadCounters {
 public:
  /// Enables counting: one zeroed array of `directed_edges` slots per
  /// worker slot in [0, workers). All memory is allocated here, up front,
  /// so the counting itself never allocates.
  void init(std::size_t workers, std::size_t directed_edges) {
    per_worker_.assign(workers,
                       std::vector<std::uint64_t>(directed_edges, 0));
  }

  bool enabled() const { return !per_worker_.empty(); }

  /// The calling worker's flat count array (index = CSR edge slot).
  std::uint64_t* row(std::size_t worker_slot) {
    return per_worker_[worker_slot].data();
  }

  /// Merged count for one CSR edge slot. O(workers) per call — hot loops
  /// that read many slots should take one merged() snapshot instead.
  std::uint64_t slot_total(std::size_t edge_slot) const {
    std::uint64_t total = 0;
    for (const auto& row : per_worker_) total += row[edge_slot];
    return total;
  }

  /// Bulk snapshot: merged totals for every CSR edge slot (index = slot),
  /// one pass over the per-worker arrays. Reading E slots through this is
  /// O(workers * E) total, versus O(workers * E) *per full scan* repeated
  /// E times when looping over slot_total.
  std::vector<std::uint64_t> merged() const {
    std::vector<std::uint64_t> out;
    if (per_worker_.empty()) return out;
    out.assign(per_worker_.front().size(), 0);
    for (const auto& row : per_worker_) {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += row[i];
    }
    return out;
  }

  /// Record / read a message outside the CSR edge set (validation off).
  void add_off_csr(std::uint64_t key) {
    std::scoped_lock lock(off_csr_mutex_);
    ++off_csr_[key];
  }
  std::uint64_t off_csr(std::uint64_t key) const {
    std::scoped_lock lock(off_csr_mutex_);
    const auto it = off_csr_.find(key);
    return it == off_csr_.end() ? 0 : it->second;
  }

 private:
  std::vector<std::vector<std::uint64_t>> per_worker_;
  mutable std::mutex off_csr_mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> off_csr_;
};

}  // namespace dc::sim
