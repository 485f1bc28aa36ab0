// Associative binary operations (monoids) for parallel prefix computation.
//
// The paper's prefix algorithms assume only that ⊕ is associative — not
// commutative. Every algorithm in src/core combines operands strictly in
// index order, and the test suite runs the non-commutative monoids below
// (string concatenation, 2x2 matrix product) to certify that property.
//
// A Monoid provides:
//   * value_type        — the element type;
//   * identity()        — the neutral element;
//   * combine(a, b)     — a ⊕ b, associative.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>

namespace dc::core {

template <typename M>
concept Monoid = requires(const M m, const typename M::value_type& a,
                          const typename M::value_type& b) {
  typename M::value_type;
  { m.identity() } -> std::convertible_to<typename M::value_type>;
  { m.combine(a, b) } -> std::convertible_to<typename M::value_type>;
};

/// Addition. For unsigned types this wraps modulo 2^w, which keeps the
/// operation exactly associative regardless of magnitude.
template <typename T>
struct Plus {
  using value_type = T;
  T identity() const { return T{}; }
  T combine(const T& a, const T& b) const { return static_cast<T>(a + b); }
};

/// Minimum, with +infinity (numeric max) as identity.
template <typename T>
struct Min {
  using value_type = T;
  T identity() const { return std::numeric_limits<T>::max(); }
  T combine(const T& a, const T& b) const { return std::min(a, b); }
};

/// Maximum, with -infinity (numeric lowest) as identity.
template <typename T>
struct Max {
  using value_type = T;
  T identity() const { return std::numeric_limits<T>::lowest(); }
  T combine(const T& a, const T& b) const { return std::max(a, b); }
};

/// Bitwise XOR.
template <typename T>
struct Xor {
  using value_type = T;
  T identity() const { return T{}; }
  T combine(const T& a, const T& b) const { return static_cast<T>(a ^ b); }
};

/// String concatenation — associative but NOT commutative. Prefixes under
/// this monoid spell out the exact left-to-right combination order, which
/// is how the tests prove the algorithms never reorder operands.
struct Concat {
  using value_type = std::string;
  std::string identity() const { return {}; }
  std::string combine(const std::string& a, const std::string& b) const {
    return a + b;
  }
};

/// 2x2 matrix over Z/2^64 (wraparound arithmetic). Associative but not
/// commutative; a second, cheaper non-commutativity witness.
struct Mat2 {
  using value_type = std::array<std::uint64_t, 4>;  // row-major [a b; c d]

  value_type identity() const { return {1, 0, 0, 1}; }

  value_type combine(const value_type& x, const value_type& y) const {
    return {
        x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3],
    };
  }
};

/// Index ranges under adjacent concatenation — the prefix certificate's
/// monoid (SNIPPETS.md's scantst.c `assoc` check, made exact). A value is
/// a range [lo, hi] of input indices, the empty range (the identity) or
/// ⊥. [i, j] ⊕ [j+1, k] = [i, k]; the empty range is neutral; any other
/// pair gives ⊥, which absorbs. The operation is exactly associative. A
/// prefix run over the inputs [i, i] that leaves [0, i] at every index i
/// joined only adjacent ranges, in order, so the same schedule computes
/// x_0 ⊕ … ⊕ x_i for every associative ⊕ (the free-monoid argument).
/// Values are 16 trivially copyable bytes, so every engine — the sharded
/// fused sweep and its out-of-core streaming included — can run it.
struct Interval {
  struct value_type {
    std::uint64_t lo = 1;  // lo > hi: the empty range {1, 0} or ⊥ {2, 0}
    std::uint64_t hi = 0;
    friend bool operator==(const value_type&, const value_type&) = default;
  };

  static constexpr value_type range(std::uint64_t lo, std::uint64_t hi) {
    return {lo, hi};
  }
  static constexpr value_type bottom() { return {2, 0}; }

  value_type identity() const { return {}; }
  value_type combine(const value_type& a, const value_type& b) const {
    if (a == identity()) return b;
    if (b == identity()) return a;
    if (a.lo <= a.hi && b.lo <= b.hi && a.hi + 1 == b.lo) return {a.lo, b.hi};
    return bottom();
  }
};

}  // namespace dc::core
