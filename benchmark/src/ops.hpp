// The operations dcbench times. Each op builds its input and reference
// outside the timed interval, makes exactly one call into a public
// algorithm entry point inside it, and is verified outside it again:
// against a sequential reference and against the paper's exact step
// counts in core/formulas.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_sort.hpp"
#include "core/dual_prefix.hpp"
#include "core/dual_sort.hpp"
#include "core/formulas.hpp"
#include "core/ops.hpp"
#include "core/sequential.hpp"
#include "core/sharded_prefix.hpp"
#include "sim/machine.hpp"
#include "sim/shard.hpp"
#include "support/rng.hpp"
#include "topology/dual_cube.hpp"
#include "topology/recursive_dual_cube.hpp"
#include "workloads.hpp"

namespace dcbench {

using dc::u64;

/// Model counts and path facts one timed call reports.
struct OpCounters {
  dc::sim::Counters counters;
  u64 replayed_cycles = 0;
};

/// Input seed of op `index`: the same (seed, index) always yields the same
/// input, whichever child process runs it.
inline u64 input_seed(u64 seed, u64 index) {
  u64 s = seed ^ (index * 0x9e3779b97f4a7c15ull);
  return dc::splitmix64(s);
}

class Op {
 public:
  virtual ~Op() = default;
  /// Untimed: builds op `index`'s input and reference.
  virtual void prepare(u64 index) = 0;
  /// Timed: one call into the library's public entry point.
  virtual OpCounters run() = 0;
  /// Untimed: the last run's result equals the reference.
  virtual bool result_ok() const = 0;
  /// Flips one bit of the current reference (the negative self-test).
  virtual void corrupt_reference() = 0;
  virtual u64 expected_comm_cycles() const = 0;
  virtual u64 expected_comp_steps() const = 0;
  /// Input items of one op: nodes, or keys for the block sort.
  virtual u64 items() const = 0;
  /// Drops per-engine state so the next run starts cold. Flat ops build a
  /// fresh Machine inside every run already.
  virtual void reset() {}
};

/// dual_prefix on D_n over u64 Plus; one Machine per op.
class PrefixOp final : public Op {
 public:
  PrefixOp(unsigned n, u64 seed) : d_(n), seed_(seed), data_(d_.node_count()) {}

  void prepare(u64 index) override {
    dc::Rng rng(input_seed(seed_, index));
    for (u64& x : data_) x = rng();
    ref_ = dc::core::seq_inclusive_scan(plus_, data_);
  }
  OpCounters run() override {
    dc::sim::Machine m(d_);
    out_ = dc::core::dual_prefix(m, d_, plus_, data_);
    return {m.counters(), m.replayed_cycles()};
  }
  bool result_ok() const override { return out_ == ref_; }
  void corrupt_reference() override { ref_[ref_.size() / 2] ^= 1; }
  u64 expected_comm_cycles() const override {
    return dc::core::formulas::dual_prefix_comm_impl(d_.order());
  }
  u64 expected_comp_steps() const override {
    return dc::core::formulas::dual_prefix_comp(d_.order());
  }
  u64 items() const override { return d_.node_count(); }

 private:
  dc::net::DualCube d_;
  u64 seed_;
  dc::core::Plus<u64> plus_;
  std::vector<u64> data_, ref_, out_;
};

/// dual_sort (width 1) or block_sort (width > 1) on RD_n, ascending. The
/// key set is drawn once from the seed and sorted once; every op sorts a
/// fresh shuffle of it, so the pre-sorted copy is the reference.
class SortOp final : public Op {
 public:
  SortOp(unsigned n, std::size_t width, u64 seed)
      : r_(n),
        width_(width),
        seed_(seed),
        sorted_(dc::generate_keys(dc::KeyDistribution::kUniform,
                                  r_.node_count() * width, seed)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  void prepare(u64 index) override {
    expect_ = &sorted_;
    keys_ = sorted_;
    dc::Rng rng(input_seed(seed_, index));
    for (std::size_t i = keys_.size() - 1; i > 0; --i)
      std::swap(keys_[i], keys_[rng.below(i + 1)]);
  }
  OpCounters run() override {
    dc::sim::Machine m(r_);
    if (width_ == 1) {
      dc::core::dual_sort(m, r_, keys_);
    } else {
      dc::core::block_sort(m, r_, keys_, width_);
    }
    return {m.counters(), m.replayed_cycles()};
  }
  bool result_ok() const override { return keys_ == *expect_; }
  void corrupt_reference() override {
    corrupted_ = sorted_;
    corrupted_[corrupted_.size() / 2] ^= 1;
    expect_ = &corrupted_;
  }
  u64 expected_comm_cycles() const override {
    return dc::core::formulas::dual_sort_comm_exact(r_.order());
  }
  // The block sort adds one computation step: the local sort of each block.
  u64 expected_comp_steps() const override {
    return dc::core::formulas::dual_sort_comp_exact(r_.order()) +
           (width_ > 1 ? 1 : 0);
  }
  u64 items() const override { return sorted_.size(); }

 private:
  dc::net::RecursiveDualCube r_;
  std::size_t width_;
  u64 seed_;
  std::vector<u64> sorted_, corrupted_, keys_;
  const std::vector<u64>* expect_ = &sorted_;
};

/// sharded_dual_prefix on D_n through one reused ShardEngine. Inputs come
/// from a stateless generator and the sink folds a position-weighted
/// digest, so no N-sized array exists and peak RSS follows the engine's
/// memory model. Any single wrong value changes the digest: every weight
/// is odd, hence invertible mod 2^64.
class ShardedOp final : public Op {
 public:
  /// The out-of-core budget: N/4 nodes x 32 B, below one shard's working
  /// set at K = 2, so every cycle streams through the spill file.
  static std::size_t ooc_budget(unsigned n) {
    return static_cast<std::size_t>(dc::bits::pow2(2 * n - 1) / 4 * 32);
  }

  /// `budget` 0 keeps the run in core.
  ShardedOp(unsigned n, unsigned shards, std::size_t budget, u64 seed)
      : d_(n), shards_(shards), budget_(budget), seed_(seed) {
    reset();
  }

  void prepare(u64 index) override {
    salt_ = input_seed(seed_, index);
    u64 acc = 0;
    ref_digest_ = 0;
    for (u64 i = 0; i < d_.node_count(); ++i) {
      acc += value(i);
      ref_digest_ += acc * (2 * i + 1);
    }
    digest_ = 0;
    next_ = 0;
    in_order_ = true;
    eng_->reset_counters();
  }
  OpCounters run() override {
    dc::core::sharded_dual_prefix(
        *eng_, plus_, [this](u64 i) { return value(i); },
        [this](u64 base, const u64* v, std::size_t count) {
          in_order_ = in_order_ && base == next_;
          for (std::size_t j = 0; j < count; ++j)
            digest_ += v[j] * (2 * (base + j) + 1);
          next_ = base + count;
        });
    OpCounters c{eng_->counters(), 0};
    for (unsigned k = 0; k < eng_->shard_count(); ++k)
      c.replayed_cycles += eng_->machine(k).replayed_cycles();
    return c;
  }
  bool result_ok() const override {
    return in_order_ && next_ == d_.node_count() && digest_ == ref_digest_;
  }
  void corrupt_reference() override { ref_digest_ ^= 1; }
  u64 expected_comm_cycles() const override {
    return dc::core::formulas::dual_prefix_comm_impl(d_.order());
  }
  u64 expected_comp_steps() const override {
    return dc::core::formulas::dual_prefix_comp(d_.order());
  }
  u64 items() const override { return d_.node_count(); }
  void reset() override {
    eng_.reset();
    eng_ = std::make_unique<dc::sim::ShardEngine>(d_, shards_, budget_);
  }

  const dc::sim::ShardEngine& engine() const { return *eng_; }

 private:
  u64 value(u64 i) const {
    const u64 x = (i + salt_) * 0x9e3779b97f4a7c15ull;
    return x ^ (x >> 31);
  }

  dc::net::DualCube d_;
  unsigned shards_;
  std::size_t budget_;
  u64 seed_;
  dc::core::Plus<u64> plus_;
  std::unique_ptr<dc::sim::ShardEngine> eng_;
  u64 salt_ = 0, ref_digest_ = 0, digest_ = 0, next_ = 0;
  bool in_order_ = true;
};

inline std::unique_ptr<Op> make_op(const Workload& w, u64 seed) {
  switch (w.kind) {
    case Kind::kPrefix:
      return std::make_unique<PrefixOp>(w.order, seed);
    case Kind::kSort:
      return std::make_unique<SortOp>(w.order, w.width, seed);
    case Kind::kSharded:
      return std::make_unique<ShardedOp>(w.order, w.shards,
                                         ShardedOp::ooc_budget(w.order), seed);
  }
  return nullptr;
}

}  // namespace dcbench
