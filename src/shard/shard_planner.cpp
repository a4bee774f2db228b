#include "shard/shard_planner.hpp"

#include <algorithm>
#include <stdexcept>

namespace topk::shard {

namespace {

void check_shard_count(std::uint32_t rows, int shards) {
  if (shards <= 0) {
    throw std::invalid_argument("shard planner: shard count must be positive");
  }
  if (static_cast<std::uint64_t>(shards) > rows) {
    throw std::invalid_argument("shard planner: more shards than rows");
  }
}

}  // namespace

ShardPlan plan_even_rows(std::uint32_t rows, int shards) {
  check_shard_count(rows, shards);
  return core::make_row_partitions(rows, shards);
}

ShardPlan plan_nnz_balanced(const sparse::Csr& matrix, int shards) {
  const std::uint32_t rows = matrix.rows();
  check_shard_count(rows, shards);
  const auto total_nnz = static_cast<std::uint64_t>(matrix.nnz());
  const std::vector<std::uint64_t>& row_ptr = matrix.row_ptr();
  const auto count = static_cast<std::uint32_t>(shards);

  ShardPlan plan;
  plan.reserve(count);
  std::uint32_t begin = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint32_t end = rows;
    if (s + 1 < count) {
      // First row whose nnz prefix reaches the ideal boundary, kept
      // inside [begin + 1, rows - remaining shards] so every shard
      // (including the ones still to come) stays non-empty.
      const std::uint64_t target = total_nnz * (s + 1) / count;
      const auto cut = std::lower_bound(row_ptr.begin(), row_ptr.end(), target);
      end = static_cast<std::uint32_t>(cut - row_ptr.begin());
      end = std::clamp(end, begin + 1, rows - (count - 1 - s));
    }
    plan.push_back(core::Partition{begin, end});
    begin = end;
  }
  return plan;
}

double plan_nnz_imbalance(const sparse::Csr& matrix, const ShardPlan& plan) {
  if (plan.empty()) {
    throw std::invalid_argument("plan_nnz_imbalance: empty plan");
  }
  const std::vector<std::uint64_t>& row_ptr = matrix.row_ptr();
  std::uint64_t max_nnz = 0;
  for (const core::Partition& range : plan) {
    if (range.row_end > matrix.rows() || range.row_end < range.row_begin) {
      throw std::invalid_argument("plan_nnz_imbalance: range outside matrix");
    }
    max_nnz = std::max(max_nnz, row_ptr[range.row_end] - row_ptr[range.row_begin]);
  }
  const double ideal =
      static_cast<double>(matrix.nnz()) / static_cast<double>(plan.size());
  return ideal > 0.0 ? static_cast<double>(max_nnz) / ideal : 1.0;
}

ShardPlan ShardPlanner::plan(const sparse::Csr& matrix, int shards) const {
  switch (policy_) {
    case ShardPolicy::kEvenRows:
      return plan_even_rows(matrix.rows(), shards);
    case ShardPolicy::kNnzBalanced:
      return plan_nnz_balanced(matrix, shards);
  }
  throw std::invalid_argument("ShardPlanner: unknown policy");
}

}  // namespace topk::shard
