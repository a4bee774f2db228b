// Tests for the sharded scatter-gather tier: shard planning (even vs
// nnz-balanced on skewed matrices), the ShardedIndex scatter/gather
// paths (bit-identical to the unsharded exact backends, stats
// aggregation, mixed backends, registry factories), and the repo-wide
// deterministic Top-K tie-break (descending value, ascending row id)
// that makes sharded and unsharded results bit-comparable even with
// engineered score ties.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/ranking.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_index.hpp"
#include "test_helpers.hpp"

namespace topk::shard {
namespace {

std::shared_ptr<const sparse::Csr> shared_matrix(std::uint32_t rows,
                                                 std::uint32_t cols,
                                                 double mean_nnz,
                                                 std::uint64_t seed) {
  return std::make_shared<const sparse::Csr>(
      test::small_random_matrix(rows, cols, mean_nnz, seed));
}

/// A matrix whose first `dense_rows` rows hold `dense_nnz` non-zeros
/// each while every other row holds one — the skew an even row split
/// handles badly.
sparse::Csr skewed_matrix(std::uint32_t rows, std::uint32_t cols,
                          std::uint32_t dense_rows, std::uint32_t dense_nnz) {
  sparse::Coo coo(rows, cols);
  util::Xoshiro256 rng(99);
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint32_t nnz = r < dense_rows ? dense_nnz : 1;
    for (std::uint32_t i = 0; i < nnz; ++i) {
      coo.push_back(r, (r * 31 + i * 7) % cols,
                    static_cast<float>(rng.uniform(0.05, 1.0)));
    }
  }
  return sparse::Csr::from_coo(std::move(coo));
}

void expect_cover(const ShardPlan& plan, std::uint32_t rows) {
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front().row_begin, 0u);
  EXPECT_EQ(plan.back().row_end, rows);
  for (std::size_t s = 0; s < plan.size(); ++s) {
    EXPECT_LT(plan[s].row_begin, plan[s].row_end) << "shard " << s;
    if (s > 0) {
      EXPECT_EQ(plan[s].row_begin, plan[s - 1].row_end) << "shard " << s;
    }
  }
}

// ------------------------------------------------------------- ShardPlanner

TEST(ShardPlannerTest, EvenRowsCoverWithBalancedSizes) {
  const ShardPlan plan = plan_even_rows(1003, 4);
  expect_cover(plan, 1003);
  for (const core::Partition& range : plan) {
    EXPECT_GE(range.rows(), 250u);
    EXPECT_LE(range.rows(), 251u);
  }
}

TEST(ShardPlannerTest, NnzBalancedCoversAllRows) {
  const sparse::Csr matrix = test::small_random_matrix(777, 64, 6.0, 31);
  for (const int shards : {1, 2, 4, 8}) {
    const ShardPlan plan = plan_nnz_balanced(matrix, shards);
    ASSERT_EQ(plan.size(), static_cast<std::size_t>(shards));
    expect_cover(plan, matrix.rows());
  }
}

TEST(ShardPlannerTest, NnzBalancedBeatsEvenSplitOnSkewedMatrices) {
  // 100 rows x 64 nnz up front, 900 single-entry rows behind: the even
  // split gives shard 0 ~88% of the work.
  const sparse::Csr matrix = skewed_matrix(1000, 128, 100, 64);
  const double even = plan_nnz_imbalance(matrix, plan_even_rows(matrix.rows(), 4));
  const double balanced =
      plan_nnz_imbalance(matrix, plan_nnz_balanced(matrix, 4));
  EXPECT_GT(even, 2.0);
  EXPECT_LT(balanced, 1.5);
  EXPECT_LT(balanced, even);
}

TEST(ShardPlannerTest, PolicyFacadeDispatches) {
  const sparse::Csr matrix = skewed_matrix(400, 64, 40, 32);
  EXPECT_EQ(ShardPlanner(ShardPolicy::kEvenRows).plan(matrix, 4),
            plan_even_rows(matrix.rows(), 4));
  EXPECT_EQ(ShardPlanner(ShardPolicy::kNnzBalanced).plan(matrix, 4),
            plan_nnz_balanced(matrix, 4));
}

TEST(ShardPlannerTest, RejectsBadShardCounts) {
  const sparse::Csr matrix = test::small_random_matrix(10, 32, 4.0, 32);
  EXPECT_THROW((void)plan_even_rows(10, 0), std::invalid_argument);
  EXPECT_THROW((void)plan_even_rows(10, -2), std::invalid_argument);
  EXPECT_THROW((void)plan_even_rows(10, 11), std::invalid_argument);
  EXPECT_THROW((void)plan_nnz_balanced(matrix, 0), std::invalid_argument);
  EXPECT_THROW((void)plan_nnz_balanced(matrix, 11), std::invalid_argument);
}

// ------------------------------------------------------------ ShardedIndex

TEST(ShardedIndexTest, FourExactShardsBitIdenticalToExactSort) {
  // The acceptance check: 4 exact shards == unsharded ExactSortIndex,
  // entries (values and row ids, ties included) bit-for-bit, with both
  // planning policies and at every scatter width.
  const auto matrix = shared_matrix(2000, 128, 8.0, 41);
  const index::ExactSortIndex unsharded(matrix);
  for (const ShardPolicy policy :
       {ShardPolicy::kEvenRows, ShardPolicy::kNnzBalanced}) {
    const auto sharded = ShardedIndexBuilder()
                             .matrix(matrix)
                             .shards(4)
                             .policy(policy)
                             .inner_backend("exact-sort")
                             .build();
    util::Xoshiro256 rng(42);
    for (int q = 0; q < 6; ++q) {
      const auto x = sparse::generate_dense_vector(128, rng);
      const auto expected = unsharded.query(x, 25).entries;
      index::QueryOptions sequential;
      sequential.threads = 1;
      index::QueryOptions parallel;
      parallel.threads = 4;
      EXPECT_EQ(sharded->query(x, 25, sequential).entries, expected)
          << "policy " << static_cast<int>(policy) << " query " << q;
      EXPECT_EQ(sharded->query(x, 25, parallel).entries, expected)
          << "policy " << static_cast<int>(policy) << " query " << q;
    }
  }
}

TEST(ShardedIndexTest, CpuHeapShardsMatchUnshardedCpuHeap) {
  const auto matrix = shared_matrix(999, 64, 5.0, 43);
  const index::CpuHeapIndex unsharded(matrix);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(3)
                           .inner_backend("cpu-heap")
                           .build();
  util::Xoshiro256 rng(44);
  for (int q = 0; q < 4; ++q) {
    const auto x = sparse::generate_dense_vector(64, rng);
    EXPECT_EQ(sharded->query(x, 15).entries, unsharded.query(x, 15).entries)
        << "query " << q;
  }
}

TEST(ShardedIndexTest, StatsAggregateAcrossShards) {
  // Manual two-shard construction over fpga-sim inners so the
  // aggregates can be checked against the per-shard results directly.
  const auto matrix = shared_matrix(600, 128, 8.0, 45);
  const auto design = core::DesignConfig::fixed(20, 4);
  const ShardPlan plan = plan_nnz_balanced(*matrix, 2);
  std::vector<Shard> shards;
  for (const core::Partition& range : plan) {
    const auto slice = std::make_shared<const sparse::Csr>(
        matrix->slice_rows(range.row_begin, range.row_end));
    shards.push_back(
        Shard{range, std::make_shared<index::FpgaSimIndex>(slice, design)});
  }
  const ShardedIndex sharded(shards, "sharded-fpga-sim");

  util::Xoshiro256 rng(46);
  const auto x = sparse::generate_dense_vector(128, rng);
  const auto result = sharded.query(x, 10);

  std::uint64_t rows_scanned = 0;
  double slowest = 0.0;
  int slowest_shard = -1;
  std::uint64_t candidates = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto inner = shards[s].primary().query(x, 10);
    rows_scanned += inner.stats.rows_scanned;
    if (inner.stats.modelled_seconds > slowest) {
      slowest = inner.stats.modelled_seconds;
      slowest_shard = static_cast<int>(s);
    }
    candidates += inner.entries.size();
  }
  EXPECT_EQ(result.stats.rows_scanned, rows_scanned);
  EXPECT_EQ(result.stats.rows_scanned, matrix->rows());
  EXPECT_EQ(result.stats.modelled_seconds, slowest);
  const index::ShardStats* stats = index::shard_stats(result);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->shards, 2);
  EXPECT_EQ(stats->slowest_shard, slowest_shard);
  EXPECT_EQ(stats->gathered_candidates, candidates);
  EXPECT_EQ(index::fpga_stats(result), nullptr);
  EXPECT_EQ(index::gpu_stats(result), nullptr);
}

TEST(ShardedIndexTest, SlowestShardIsMeasuredForUnmodelledBackends) {
  // Regression: cpu-heap/exact-sort shards report no modelled device
  // time, which used to leave ShardStats::slowest_shard permanently at
  // -1 — the dynamic-resharding load signal was dead for every pure
  // CPU deployment.  The scatter now times each query_shard call and
  // falls back to the measured wall time.
  const auto matrix = shared_matrix(1200, 64, 6.0, 57);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(4)
                           .inner_backend("cpu-heap")
                           .build();
  util::Xoshiro256 rng(58);
  for (const int threads : {1, 4}) {
    index::QueryOptions options;
    options.threads = threads;
    const auto result =
        sharded->query(sparse::generate_dense_vector(64, rng), 10, options);
    const index::ShardStats* stats = index::shard_stats(result);
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->slowest_shard, -1) << threads << " threads";
    EXPECT_GE(stats->slowest_shard, 0);
    EXPECT_LT(stats->slowest_shard, 4);
    EXPECT_GT(stats->slowest_seconds, 0.0);
    EXPECT_EQ(result.stats.modelled_seconds, 0.0);  // measured, not modelled
  }
  // The measured wall times also feed the per-replica EWMA the
  // least-loaded router consumes.
  for (std::size_t s = 0; s < sharded->shard_count(); ++s) {
    const auto replicas = sharded->replica_stats(s);
    ASSERT_EQ(replicas.size(), 1u);
    EXPECT_GT(replicas[0].queries, 0u);
    EXPECT_GT(replicas[0].ewma_seconds, 0.0);
    EXPECT_EQ(replicas[0].inflight, 0);
    EXPECT_TRUE(replicas[0].healthy);
  }
  // The batch grid path feeds the same signal.
  const auto batch =
      sharded->query_batch({sparse::generate_dense_vector(64, rng)}, 10);
  ASSERT_NE(index::shard_stats(batch[0]), nullptr);
  EXPECT_NE(index::shard_stats(batch[0])->slowest_shard, -1);
}

TEST(ShardedIndexBuilderTest, DuplicateShardBackendOverrideThrows) {
  // A duplicate override used to be silent last-wins; now it throws at
  // build() time naming the shard, whether the names differ or not.
  const auto matrix = shared_matrix(300, 64, 5.0, 59);
  try {
    (void)ShardedIndexBuilder()
        .matrix(matrix)
        .shards(4)
        .shard_backend(2, "cpu-heap")
        .shard_backend(2, "exact-sort")
        .build();
    FAIL() << "duplicate override did not throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("shard 2"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)ShardedIndexBuilder()
                   .matrix(matrix)
                   .shards(4)
                   .shard_backend(1, "cpu-heap")
                   .shard_backend(1, "cpu-heap")
                   .build(),
               std::invalid_argument);
  // A single override per shard still builds.
  EXPECT_NO_THROW((void)ShardedIndexBuilder()
                      .matrix(matrix)
                      .shards(4)
                      .shard_backend(1, "exact-sort")
                      .shard_backend(2, "cpu-heap")
                      .build());
}

TEST(ShardedIndexTest, MixedBackendsGatherCorrectly) {
  // fpga-sim shards with one exact cpu-heap straggler — the
  // mixed-backend deployment the tier exists for.
  const auto matrix = shared_matrix(800, 128, 8.0, 47);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  const auto mixed = ShardedIndexBuilder()
                         .matrix(matrix)
                         .shards(4)
                         .inner_backend("fpga-sim")
                         .inner_options(options)
                         .shard_backend(3, "cpu-heap")
                         .build();
  const auto description = mixed->describe();
  EXPECT_EQ(description.backend, "sharded");
  EXPECT_FALSE(description.exact);  // three approximate shards
  EXPECT_NE(description.detail.find("fpga-sim x3"), std::string::npos)
      << description.detail;
  EXPECT_NE(description.detail.find("cpu-heap x1"), std::string::npos)
      << description.detail;

  const index::ExactSortIndex exact(matrix);
  util::Xoshiro256 rng(48);
  for (int q = 0; q < 3; ++q) {
    const auto x = sparse::generate_dense_vector(128, rng);
    const auto result = mixed->query(x, 10);
    ASSERT_EQ(result.entries.size(), 10u);
    std::vector<std::uint32_t> got;
    std::vector<std::uint32_t> want;
    for (const auto& entry : result.entries) {
      got.push_back(entry.index);
    }
    for (const auto& entry : exact.query(x, 10).entries) {
      want.push_back(entry.index);
    }
    EXPECT_GE(eval::precision_at_k(got, want), 0.7) << "query " << q;
  }
}

TEST(ShardedIndexTest, BatchPathMatchesPerQueryPath) {
  const auto matrix = shared_matrix(700, 64, 6.0, 49);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(4)
                           .inner_backend("exact-sort")
                           .build();
  util::Xoshiro256 rng(50);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 5; ++q) {
    queries.push_back(sparse::generate_dense_vector(64, rng));
  }
  index::QueryOptions options;
  options.threads = 3;
  const auto batch = sharded->query_batch(queries, 12, options);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto single = sharded->query(queries[q], 12);
    EXPECT_EQ(batch[q].entries, single.entries) << "query " << q;
    EXPECT_EQ(batch[q].stats.rows_scanned, matrix->rows()) << "query " << q;
    ASSERT_NE(index::shard_stats(batch[q]), nullptr) << "query " << q;
    EXPECT_EQ(index::shard_stats(batch[q])->shards, 4) << "query " << q;
  }

  // The overlay entry is the same scatter: no overlays, or one empty
  // overlay per query, serve exactly query()'s entries, and any other
  // overlay count is rejected.
  const std::vector<std::span<const float>> views(queries.begin(),
                                                  queries.end());
  const std::vector<ShardedIndex::DeltaOverlay> empty(queries.size());
  for (const std::span<const ShardedIndex::DeltaOverlay> overlays :
       {std::span<const ShardedIndex::DeltaOverlay>{},
        std::span<const ShardedIndex::DeltaOverlay>(empty)}) {
    const auto overlaid =
        sharded->query_with_delta(views, 12, overlays, options);
    ASSERT_EQ(overlaid.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(overlaid[q].entries, sharded->query(queries[q], 12).entries)
          << overlays.size() << " overlays, query " << q;
    }
  }
  EXPECT_THROW((void)sharded->query_with_delta(
                   views, 12, std::span(empty).first(2), options),
               std::invalid_argument);
}

TEST(ShardedIndexTest, CappedShardsClampAndSumMaxTopK) {
  const auto matrix = shared_matrix(400, 128, 8.0, 51);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);  // cap = k * cores = 32
  const auto capped = ShardedIndexBuilder()
                          .matrix(matrix)
                          .shards(2)
                          .inner_backend("fpga-sim")
                          .inner_options(options)
                          .build();
  EXPECT_EQ(capped->max_top_k(), 64);  // 2 shards x 32
  EXPECT_THROW((void)capped->query(std::vector<float>(128, 0.1f), 65),
               std::invalid_argument);
  // A request above one shard's cap but under the sum still serves:
  // each shard contributes its clamped candidate list.
  const auto result = capped->query(std::vector<float>(128, 0.1f), 40);
  EXPECT_EQ(result.entries.size(), 40u);

  // Any uncapped shard makes the composite unbounded.
  const auto uncapped = ShardedIndexBuilder()
                            .matrix(matrix)
                            .shards(2)
                            .inner_backend("cpu-heap")
                            .build();
  EXPECT_EQ(uncapped->max_top_k(), 0);
}

TEST(ShardedIndexTest, ValidationAndConstructionErrors) {
  const auto matrix = shared_matrix(300, 64, 5.0, 52);
  const auto sharded = ShardedIndexBuilder()
                           .matrix(matrix)
                           .shards(3)
                           .inner_backend("exact-sort")
                           .build();
  EXPECT_THROW((void)sharded->query(std::vector<float>(5, 0.0f), 10),
               std::invalid_argument);
  EXPECT_THROW((void)sharded->query(std::vector<float>(64, 0.0f), 0),
               std::invalid_argument);
  EXPECT_THROW((void)sharded->query_batch({}, -1), std::invalid_argument);
  index::QueryOptions negative;
  negative.threads = -1;
  EXPECT_THROW((void)sharded->query(std::vector<float>(64, 0.1f), 5, negative),
               std::invalid_argument);

  EXPECT_THROW((void)ShardedIndexBuilder().build(), std::invalid_argument);
  EXPECT_THROW((void)ShardedIndexBuilder().matrix(matrix).shards(0).build(),
               std::invalid_argument);
  EXPECT_THROW((void)ShardedIndexBuilder()
                   .matrix(matrix)
                   .inner_backend("annoy")
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)ShardedIndexBuilder()
                   .matrix(matrix)
                   .shards(2)
                   .shard_backend(2, "cpu-heap")
                   .build(),
               std::invalid_argument);

  // Direct construction rejects malformed shard lists.
  EXPECT_THROW(ShardedIndex({}), std::invalid_argument);
  const auto slice = std::make_shared<const sparse::Csr>(
      matrix->slice_rows(0, 100));
  const auto inner = std::make_shared<index::ExactSortIndex>(slice);
  EXPECT_THROW(
      ShardedIndex({Shard{core::Partition{50, 150}, inner}}),  // not at row 0
      std::invalid_argument);
  EXPECT_THROW(
      ShardedIndex({Shard{core::Partition{0, 99}, inner}}),  // rows mismatch
      std::invalid_argument);
  EXPECT_THROW(ShardedIndex({Shard{core::Partition{0, 100}, nullptr}}),
               std::invalid_argument);
}

// ----------------------------------------------------------- registry keys

TEST(ShardRegistryTest, ShardedBuiltinsAreRegistered) {
  for (const char* name : {"sharded-fpga-sim", "sharded-cpu-heap",
                           "sharded-exact-sort", "sharded-gpu-f16"}) {
    EXPECT_TRUE(index::has_backend(name)) << name;
  }
  const auto matrix = shared_matrix(400, 64, 6.0, 53);
  const auto sharded = index::make_index("sharded-exact-sort", matrix);
  EXPECT_EQ(sharded->describe().backend, "sharded-exact-sort");
  EXPECT_EQ(sharded->rows(), matrix->rows());
  EXPECT_EQ(sharded->cols(), matrix->cols());

  // The registry factory must match the unsharded backend bit-for-bit.
  const auto unsharded = index::make_index("exact-sort", matrix);
  util::Xoshiro256 rng(54);
  const auto x = sparse::generate_dense_vector(64, rng);
  EXPECT_EQ(sharded->query(x, 10).entries, unsharded->query(x, 10).entries);
}

TEST(ShardRegistryTest, OptionsControlShardCountAndClamping) {
  const auto matrix = shared_matrix(500, 64, 6.0, 55);
  index::IndexOptions options;
  options.shards = 2;
  const auto two = index::make_index("sharded-cpu-heap", matrix, options);
  const auto result =
      two->query(std::vector<float>(64, 0.1f), 5);
  ASSERT_NE(index::shard_stats(result), nullptr);
  EXPECT_EQ(index::shard_stats(result)->shards, 2);

  // More shards than rows: clamped, not an error (generic sweeps hand
  // tiny matrices to every registered backend).
  const auto tiny = shared_matrix(3, 64, 4.0, 56);
  options.shards = 8;
  const auto clamped = index::make_index("sharded-cpu-heap", tiny, options);
  const auto tiny_result = clamped->query(std::vector<float>(64, 0.1f), 2);
  ASSERT_NE(index::shard_stats(tiny_result), nullptr);
  EXPECT_EQ(index::shard_stats(tiny_result)->shards, 3);

  // make_index forwards the shard knobs.
  index::IndexOptions even_options;
  even_options.shards = 3;
  even_options.nnz_balanced_shards = false;
  const auto built =
      index::make_index("sharded-exact-sort", matrix, even_options);
  const auto built_result = built->query(std::vector<float>(64, 0.1f), 5);
  ASSERT_NE(index::shard_stats(built_result), nullptr);
  EXPECT_EQ(index::shard_stats(built_result)->shards, 3);
}

// -------------------------------------------------- deterministic tie-break

/// Rows engineered so scores tie exactly: even rows share value 1.0 at
/// column 0, odd rows share value 0.5.  With x = e0 every even row
/// scores 1.0 and every odd row 0.5 in every exact arithmetic
/// (including binary16 — both values are exactly representable).
sparse::Csr tied_matrix(std::uint32_t rows, std::uint32_t cols) {
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::uint32_t r = 0; r < rows; ++r) {
    col_idx.push_back(0);
    values.push_back(r % 2 == 0 ? 1.0f : 0.5f);
    row_ptr.push_back(col_idx.size());
  }
  return sparse::Csr::from_parts(rows, cols, std::move(row_ptr),
                                 std::move(col_idx), std::move(values));
}

TEST(TopKTieBreakTest, EngineeredTiesResolveByAscendingRowAcrossBackends) {
  constexpr std::uint32_t kRows = 24;
  constexpr std::uint32_t kCols = 8;
  const auto matrix =
      std::make_shared<const sparse::Csr>(tied_matrix(kRows, kCols));
  std::vector<float> x(kCols, 0.0f);
  x[0] = 1.0f;

  // top-16 = all 12 even rows (value 1.0, ascending id), then the
  // first 4 odd rows (value 0.5, ascending id).
  std::vector<core::TopKEntry> expected;
  for (std::uint32_t r = 0; r < kRows; r += 2) {
    expected.push_back(core::TopKEntry{r, 1.0});
  }
  for (std::uint32_t r = 1; r < 8; r += 2) {
    expected.push_back(core::TopKEntry{r, 0.5});
  }

  for (const char* name : {"cpu-heap", "exact-sort", "gpu-f16"}) {
    const auto index = index::make_index(name, matrix);
    EXPECT_EQ(index->query(x, 16).entries, expected) << name;
  }
  // The multi-threaded heap scan merges per-thread heaps across the
  // tie groups — the canonical order must survive the merge.
  index::QueryOptions threaded;
  threaded.threads = 4;
  EXPECT_EQ(index::make_index("cpu-heap", matrix)->query(x, 16, threaded).entries,
            expected);
}

TEST(TopKTieBreakTest, ShardedAndUnshardedTiesAreBitComparable) {
  const auto matrix =
      std::make_shared<const sparse::Csr>(tied_matrix(24, 8));
  std::vector<float> x(8, 0.0f);
  x[0] = 1.0f;
  const auto unsharded = index::make_index("exact-sort", matrix);
  // Shard boundaries cut straight through both tie groups; the k-way
  // gather must still interleave them back into ascending-row order.
  for (const int shards : {2, 3, 4, 6}) {
    index::IndexOptions options;
    options.shards = shards;
    const auto sharded = index::make_index("sharded-exact-sort", matrix, options);
    EXPECT_EQ(sharded->query(x, 16).entries, unsharded->query(x, 16).entries)
        << shards << " shards";
  }
}

}  // namespace
}  // namespace topk::shard
