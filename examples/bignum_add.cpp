// Adding two huge integers on a dual-cube machine: one 64-bit limb per
// node, carries resolved by a single Algorithm-2 prefix over the
// Kill/Propagate/Generate monoid instead of an N-step ripple chain.
//
//   ./bignum_add [--n=4] [--trials=5]
#include <iostream>

#include "core/carry_lookahead.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using dc::u64;
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 4));
  const int trials = static_cast<int>(cli.get_int("trials", 5));
  cli.finish();

  const dc::net::DualCube d(n);
  const std::size_t limbs = d.node_count();
  std::cout << "adding " << limbs * 64 << "-bit integers (" << limbs
            << " limbs) on " << d.name() << "\n";

  dc::Rng rng(2026);
  bool all_ok = true;
  u64 comm = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<u64> a(limbs);
    std::vector<u64> b(limbs);
    // Mix of random and adversarial carry-chain limbs (all-ones blocks
    // propagate carries the farthest).
    for (std::size_t i = 0; i < limbs; ++i) {
      a[i] = rng.below(4) == 0 ? ~u64{0} : rng();
      b[i] = rng.below(4) == 0 ? ~u64{0} : rng();
    }
    dc::sim::Machine m(d);
    std::vector<u64> parallel_sum;
    const bool carry_par = dc::core::carry_lookahead_add(m, d, a, b, parallel_sum);
    std::vector<u64> ripple_sum;
    const bool carry_seq = dc::core::seq_ripple_add(a, b, ripple_sum);
    const bool ok = parallel_sum == ripple_sum && carry_par == carry_seq;
    all_ok = all_ok && ok;
    comm = m.counters().comm_cycles;
    std::cout << "  trial " << trial << ": "
              << (ok ? "matches ripple-carry" : "MISMATCH")
              << " (carry out = " << (carry_par ? 1 : 0) << ")\n";
  }

  dc::Table t("summary");
  t.header({"metric", "value"});
  t.add("limbs (sequential ripple chain length)", limbs);
  t.add("communication cycles per addition", comm);
  t.add("all trials correct", all_ok);
  std::cout << t;
  DC_CHECK(all_ok, "carry-lookahead disagreed with ripple carry");
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
