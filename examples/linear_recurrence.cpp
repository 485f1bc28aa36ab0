// Parallel first-order linear recurrence on the dual-cube.
//
//   x_{i+1} = a_i * x_i + b_i   (mod 2^64)
//
// Sequentially this is a chain of N dependent steps; on the dual-cube it
// becomes a single Algorithm-2 prefix under the (non-commutative!) monoid
// of 2x2 matrices: with row vectors v_i = (x_i, 1),
//
//   v_{i+1} = v_i * N_i,   N_i = [ a_i 0 ]
//                                [ b_i 1 ]
//
// so x_k is read off v_0 * (N_0 N_1 ... N_{k-1}), and the product prefixes
// are exactly what dual_prefix computes in 2n communication steps. This is
// the classic "scan beats the dependence chain" trick (Hillis & Steele, the
// paper's reference [3]) and doubles as a demonstration that Algorithm 2
// never reorders operands.
//
//   ./linear_recurrence [--n=3] [--x0=1]
#include <iostream>

#include "core/dual_prefix.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using dc::u64;
  dc::Cli cli(argc, argv);
  const unsigned n = static_cast<unsigned>(cli.get_int("n", 3));
  const u64 x0 = static_cast<u64>(cli.get_int("x0", 1));
  cli.finish();

  const dc::net::DualCube d(n);
  dc::sim::Machine m(d);
  const std::size_t N = d.node_count();

  // Coefficients, one recurrence step per node.
  dc::Rng rng(12);
  std::vector<u64> a(N);
  std::vector<u64> b(N);
  for (auto& v : a) v = rng.below(100) + 1;
  for (auto& v : b) v = rng.below(100);

  // One matrix per step, combined left-to-right by Algorithm 2.
  const dc::core::Mat2 mat;
  std::vector<dc::core::Mat2::value_type> steps(N);
  for (std::size_t i = 0; i < N; ++i) steps[i] = {a[i], 0, b[i], 1};

  const auto products = dc::core::dual_prefix(m, d, mat, steps);

  // x_{k+1} = (x0, 1) * P_k, read from the first column.
  std::vector<u64> x(N + 1);
  x[0] = x0;
  for (std::size_t k = 0; k < N; ++k) {
    const auto& p = products[k];
    x[k + 1] = x0 * p[0] + p[2];
  }

  // Sequential reference.
  bool ok = true;
  u64 ref = x0;
  for (std::size_t i = 0; i < N; ++i) {
    ref = a[i] * ref + b[i];
    ok = ok && ref == x[i + 1];
  }

  dc::Table t("linear recurrence x_{i+1} = a_i x_i + b_i on " + d.name());
  t.header({"metric", "value"});
  t.add("recurrence steps (one per node)", N);
  t.add("comm cycles (Algorithm 2)", m.counters().comm_cycles);
  t.add("x_1", x[1]);
  t.add("x_2", x[2]);
  t.add("x_N", x[N]);
  t.add("matches sequential chain", ok);
  std::cout << t;
  DC_CHECK(ok, "parallel recurrence diverged from the sequential chain");
  std::cout << "a chain of " << N << " dependent steps collapsed into "
            << m.counters().comm_cycles << " communication cycles\n";
  return 0;
} catch (const dc::UsageError& e) {
  // A malformed command line (an unknown flag, a non-integer value...):
  // its exact one-line message, like dcsim's.
  std::cout << e.what() << "\n";
  return 2;
}
