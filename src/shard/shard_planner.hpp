// Shard boundary planning for the scatter-gather index tier.
//
// The paper scales Top-K SpMV by splitting the row space across 32
// FPGA cores and merging per-core candidates; the shard tier lifts the
// same 1-D row-wise decomposition one level up, to whole indexes (the
// parallel all-pairs-similarity decomposition of PAPERS.md).  A plan
// is a contiguous cover of [0, rows) — deterministic boundaries keep
// sharded results reproducible and the gather a cheap k-way merge.
//
// Two policies:
//   kEvenRows     the paper's N/c scheme (sizes differ by at most one);
//   kNnzBalanced  boundaries cut on the nnz prefix sum so every shard
//                 scans ~the same number of non-zeros — the right
//                 split for skewed (Gamma-distributed) row densities,
//                 where an even row split leaves one shard holding
//                 most of the work.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partitioner.hpp"
#include "sparse/csr.hpp"

namespace topk::shard {

/// How shard boundaries are chosen.
enum class ShardPolicy {
  kEvenRows,     ///< ~rows/shards rows each (paper's per-core scheme)
  kNnzBalanced,  ///< ~nnz/shards non-zeros each (skew-tolerant)
};

/// A plan: contiguous half-open row ranges covering [0, rows), one per
/// shard, every shard non-empty.
using ShardPlan = std::vector<core::Partition>;

/// Even row split (reuses the paper's core partitioner).  Throws
/// std::invalid_argument for non-positive counts or counts above rows.
[[nodiscard]] ShardPlan plan_even_rows(std::uint32_t rows, int shards);

/// Nnz-balanced split: boundaries are the row_ptr positions closest to
/// the ideal nnz/shards multiples, adjusted so every shard keeps at
/// least one row.  Deterministic for a given matrix.  Throws like
/// plan_even_rows.  (plan_nnz_imbalance scores the result.)
[[nodiscard]] ShardPlan plan_nnz_balanced(const sparse::Csr& matrix, int shards);

/// Work imbalance of a plan: max shard nnz / ideal shard nnz
/// (total/shards).  1.0 is perfect balance; an even row split over a
/// skewed matrix scores well above the nnz-balanced plan (asserted in
/// tests/test_shard.cpp).
[[nodiscard]] double plan_nnz_imbalance(const sparse::Csr& matrix,
                                        const ShardPlan& plan);

/// Policy-dispatching facade used by ShardedIndexBuilder and the
/// registry factories.
class ShardPlanner {
 public:
  explicit ShardPlanner(ShardPolicy policy = ShardPolicy::kNnzBalanced)
      : policy_(policy) {}

  [[nodiscard]] ShardPolicy policy() const noexcept { return policy_; }

  /// Plans `shards` boundaries over `matrix` with the configured
  /// policy.  Throws like the free planning functions.
  [[nodiscard]] ShardPlan plan(const sparse::Csr& matrix, int shards) const;

 private:
  ShardPolicy policy_;
};

}  // namespace topk::shard
