// Tests for the mutable LSM tier: the DeltaIndex memtable (exact scan,
// masking, capacity backpressure, sequence bookkeeping), the
// MutableShardedIndex merge of sealed shards with the delta overlay,
// and the Compactor's fold -> save -> verified warm load -> atomic swap
// pipeline.  The acceptance gate runs throughout: every post-mutation
// query — before and after a compaction swap, at one and two replicas —
// must be bit-identical to an exact-sort index built cold from the
// logically-equivalent matrix (the live rows in ascending id order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/backends.hpp"
#include "index/delta_index.hpp"
#include "index/mutable_index.hpp"
#include "index/registry.hpp"
#include "persist/compactor.hpp"
#include "persist/deployment.hpp"
#include "shard/mutable_sharded_index.hpp"
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

/// One sparse row as (sorted unique column, value) pairs.
using SparseRow = std::vector<std::pair<std::uint32_t, float>>;

SparseRow random_row(std::uint32_t cols, std::uint32_t nnz,
                     util::Xoshiro256& rng) {
  std::vector<std::uint32_t> pool(cols);
  for (std::uint32_t c = 0; c < cols; ++c) {
    pool[c] = c;
  }
  for (std::uint32_t i = 0; i < nnz; ++i) {
    std::swap(pool[i], pool[i + rng() % (cols - i)]);
  }
  SparseRow row;
  for (std::uint32_t i = 0; i < nnz; ++i) {
    row.emplace_back(pool[i], static_cast<float>(rng.uniform(0.05, 1.0)));
  }
  std::sort(row.begin(), row.end());
  return row;
}

std::vector<std::uint32_t> row_columns(const SparseRow& row) {
  std::vector<std::uint32_t> columns;
  for (const auto& [c, v] : row) {
    columns.push_back(c);
  }
  return columns;
}

std::vector<float> row_values(const SparseRow& row) {
  std::vector<float> values;
  for (const auto& [c, v] : row) {
    values.push_back(v);
  }
  return values;
}

/// Appends a one-entry row — the minimal mutation for tests that only
/// need the mutation COUNT to move.
std::uint32_t append_single(index::MutableIndex& mut, std::uint32_t col,
                            float value) {
  const std::vector<std::uint32_t> columns{col};
  const std::vector<float> values{value};
  return mut.insert_row(columns, values);
}

/// Mirror of the logical matrix a mutable index represents: every
/// mutation applied to the index is applied here too, and oracle()
/// yields the live rows in ascending id order — the matrix the index's
/// results must be bit-identical to under the monotone live-id remap.
class LogicalModel {
 public:
  explicit LogicalModel(const sparse::Csr& base) : cols_(base.cols()) {
    for (std::uint32_t r = 0; r < base.rows(); ++r) {
      const auto cols = base.row_cols(r);
      const auto vals = base.row_values(r);
      SparseRow row;
      for (std::size_t i = 0; i < cols.size(); ++i) {
        row.emplace_back(cols[i], vals[i]);
      }
      rows_.emplace_back(std::move(row));
    }
  }

  std::uint32_t append(const SparseRow& row) {
    rows_.emplace_back(row);
    return static_cast<std::uint32_t>(rows_.size() - 1);
  }
  void upsert(std::uint32_t id, const SparseRow& row) { rows_.at(id) = row; }
  void erase(std::uint32_t id) { rows_.at(id) = std::nullopt; }

  /// The live-rows matrix plus the oracle-row -> global-id remap.
  struct Oracle {
    std::shared_ptr<const sparse::Csr> matrix;
    std::vector<std::uint32_t> live_ids;
  };
  [[nodiscard]] Oracle oracle() const {
    Oracle out;
    for (std::uint32_t id = 0; id < rows_.size(); ++id) {
      if (rows_[id].has_value()) {
        out.live_ids.push_back(id);
      }
    }
    sparse::Coo coo(static_cast<std::uint32_t>(out.live_ids.size()), cols_);
    for (std::uint32_t r = 0; r < out.live_ids.size(); ++r) {
      for (const auto& [c, v] : *rows_[out.live_ids[r]]) {
        coo.push_back(r, c, v);
      }
    }
    out.matrix =
        std::make_shared<const sparse::Csr>(sparse::Csr::from_coo(std::move(coo)));
    return out;
  }

 private:
  std::uint32_t cols_;
  std::vector<std::optional<SparseRow>> rows_;
};

/// The acceptance gate: `index` must answer every query bit-identically
/// to an exact-sort rebuild of the model's live matrix (values AND row
/// ids, after the monotone live-id remap), on the single-query and the
/// batch path.
void expect_matches_oracle(const index::SimilarityIndex& index,
                           const LogicalModel& model, int top_k,
                           std::uint64_t seed, const std::string& context) {
  const LogicalModel::Oracle oracle = model.oracle();
  ASSERT_GT(oracle.matrix->rows(), 0u) << context;
  const index::ExactSortIndex rebuilt(oracle.matrix);
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 4; ++q) {
    queries.push_back(sparse::generate_dense_vector(index.cols(), rng));
  }
  std::vector<std::vector<core::TopKEntry>> expected;
  for (const auto& x : queries) {
    auto entries = rebuilt.query(x, top_k).entries;
    // The remap is monotone in the row id, so the repo-wide tie order
    // (descending value, ascending id) survives it untouched.
    for (core::TopKEntry& entry : entries) {
      entry.index = oracle.live_ids[entry.index];
    }
    expected.push_back(std::move(entries));
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(index.query(queries[q], top_k).entries, expected[q])
        << context << " query " << q;
  }
  const auto batch = index.query_batch(queries, top_k);
  ASSERT_EQ(batch.size(), queries.size()) << context;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[q].entries, expected[q]) << context << " batch " << q;
  }
}

/// Builds a registry mutable index and hands back both typed views.
struct MutableHandles {
  std::shared_ptr<index::SimilarityIndex> index;
  std::shared_ptr<index::MutableIndex> mut;
  std::shared_ptr<MutableShardedIndex> typed;
};

MutableHandles build_mutable(std::shared_ptr<const sparse::Csr> matrix,
                             const std::string& inner, int shards,
                             int replicas,
                             const index::IndexOptions& extra = {}) {
  index::IndexOptions options = extra;
  options.shards = shards;
  options.replicas = replicas;
  MutableHandles handles;
  handles.index =
      index::make_index("mutable-sharded-" + inner, std::move(matrix), options);
  handles.mut = index::as_mutable(handles.index);
  handles.typed =
      std::dynamic_pointer_cast<MutableShardedIndex>(handles.index);
  EXPECT_NE(handles.mut, nullptr);
  EXPECT_NE(handles.typed, nullptr);
  return handles;
}

// ---------------------------------------------------------------- DeltaIndex

TEST(DeltaIndexTest, ScanScoresExactlyAndMasksSupersededAndDeleted) {
  // Base of 4 rows, 8 columns.  Append two rows, supersede base row 1,
  // delete base row 2 and appended row 4 — the scan must surface the
  // live delta versions with hand-computable double-accumulation
  // scores and mask exactly the base ids the sealed tier must hide.
  index::DeltaIndex delta(4, 8, 0);
  const std::vector<std::uint32_t> cols_a{1, 3};
  const std::vector<float> vals_a{0.5f, 0.25f};
  const std::vector<std::uint32_t> cols_b{0, 7};
  const std::vector<float> vals_b{1.0f, 0.125f};
  EXPECT_EQ(delta.append_row(cols_a, vals_a), 4u);
  EXPECT_EQ(delta.append_row(cols_b, vals_b), 5u);
  delta.upsert_row(1, cols_b, vals_b);   // supersedes base row 1
  EXPECT_TRUE(delta.delete_row(2));      // tombstones a base row
  EXPECT_TRUE(delta.delete_row(4));      // tombstones an appended row

  EXPECT_EQ(delta.rows(), 6u);
  EXPECT_EQ(delta.live_rows(), 4u);   // 6 ids - 2 tombstones
  EXPECT_EQ(delta.delta_rows(), 2u);  // live versions: ids 1, 5
  EXPECT_EQ(delta.tombstones(), 2u);
  EXPECT_EQ(delta.superseded(), 1u);
  EXPECT_EQ(delta.mutations(), 5u);

  std::vector<float> x(8, 0.0f);
  x[0] = 0.5f;
  x[7] = 2.0f;
  const auto scan = delta.scan(x, 10);
  EXPECT_EQ(scan.scanned, 2u);
  ASSERT_EQ(scan.masked, (std::vector<std::uint32_t>{1, 2}));
  // Both live versions hold row B; equal scores tie-break by ascending
  // global id.  Score = 1.0 * 0.5 + 0.125 * 2.0, accumulated in
  // doubles in ascending column order.
  const double score = 1.0 * 0.5 + 0.125 * 2.0;
  ASSERT_EQ(scan.entries.size(), 2u);
  EXPECT_EQ(scan.entries[0].index, 1u);
  EXPECT_EQ(scan.entries[0].value, score);
  EXPECT_EQ(scan.entries[1].index, 5u);
  EXPECT_EQ(scan.entries[1].value, score);
}

TEST(DeltaIndexTest, UnsortedColumnsCanonicaliseBeforeScoring) {
  index::DeltaIndex delta(0, 16, 0);
  const std::vector<std::uint32_t> shuffled{9, 2, 14};
  const std::vector<float> shuffled_vals{0.3f, 0.7f, 0.1f};
  const std::vector<std::uint32_t> sorted{2, 9, 14};
  const std::vector<float> sorted_vals{0.7f, 0.3f, 0.1f};
  (void)delta.append_row(shuffled, shuffled_vals);
  (void)delta.append_row(sorted, sorted_vals);
  util::Xoshiro256 rng(7);
  const auto x = sparse::generate_dense_vector(16, rng);
  const auto scan = delta.scan(x, 2);
  ASSERT_EQ(scan.entries.size(), 2u);
  // Identical logical rows must score bit-identically regardless of
  // the column order they were inserted in.
  EXPECT_EQ(scan.entries[0].value, scan.entries[1].value);
}

TEST(DeltaIndexTest, RejectsMalformedRowsAndEnforcesCapacity) {
  index::DeltaIndex delta(2, 8, 2);
  const std::vector<std::uint32_t> ok_cols{0, 1};
  const std::vector<float> ok_vals{0.5f, 0.5f};
  const std::vector<float> one_val{0.5f};
  const std::vector<std::uint32_t> dup_cols{3, 3};
  const std::vector<std::uint32_t> oob_cols{1, 8};

  EXPECT_THROW((void)delta.append_row(ok_cols, one_val), std::invalid_argument);
  EXPECT_THROW((void)delta.append_row(dup_cols, ok_vals), std::invalid_argument);
  EXPECT_THROW((void)delta.append_row(oob_cols, ok_vals), std::invalid_argument);
  EXPECT_THROW((void)delta.upsert_row(5, ok_cols, ok_vals),
               std::invalid_argument);  // ids are append-only: no holes
  EXPECT_THROW((void)delta.delete_row(2), std::invalid_argument);

  // Capacity bounds LIVE delta rows: two appends fill it, the third
  // throws, and tombstoning a delta row frees a slot again.
  EXPECT_EQ(delta.append_row(ok_cols, ok_vals), 2u);
  EXPECT_EQ(delta.append_row(ok_cols, ok_vals), 3u);
  EXPECT_THROW((void)delta.append_row(ok_cols, ok_vals), std::runtime_error);
  EXPECT_TRUE(delta.delete_row(3));
  EXPECT_FALSE(delta.delete_row(3));  // idempotent
  EXPECT_EQ(delta.append_row(ok_cols, ok_vals), 4u);
}

TEST(DeltaIndexTest, InheritedTombstonesMustBeStrictlyIncreasing) {
  // The post-compaction constructor counts one deletion per inherited
  // entry, so a repeated id used to count twice ({3, 3} over 10 base
  // rows read 2 tombstones and 8 live rows); it is now rejected, like
  // an unsorted list.
  const auto make = [](std::vector<std::uint32_t> inherited) {
    return index::DeltaIndex(10, 10, 8, 0, std::move(inherited), {}, 0);
  };
  EXPECT_THROW((void)make({3, 3}), std::invalid_argument);
  EXPECT_THROW((void)make({1, 4, 4, 7}), std::invalid_argument);
  EXPECT_THROW((void)make({5, 3}), std::invalid_argument);
  const index::DeltaIndex delta = make({3, 5});
  EXPECT_EQ(delta.tombstones(), 2u);
  EXPECT_EQ(delta.live_rows(), 8u);
}

// ------------------------------------------------ the bit-identicality gate

class MutableIndexTest : public test::TempDirFixture {};

TEST_F(MutableIndexTest, MutationsBitIdenticalToExactRebuildAcrossReplicas) {
  // The acceptance gate of the mutable tier: a scripted mix of
  // appends, upserts and deletes, checked against a cold exact-sort
  // rebuild of the logically-equivalent matrix BEFORE the compaction
  // swap, AFTER it, and again after a second mutate + compact round —
  // at one and two replicas.
  const auto matrix = shared_matrix(400, 64, 6.0, 91);
  for (const int replicas : {1, 2}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    auto handles = build_mutable(matrix, "exact-sort", 3, replicas);
    LogicalModel model(*matrix);
    util::Xoshiro256 rng(92);

    for (int i = 0; i < 12; ++i) {
      const SparseRow row = random_row(64, 5, rng);
      const std::uint32_t id =
          handles.mut->insert_row(row_columns(row), row_values(row));
      EXPECT_EQ(id, model.append(row));
    }
    for (const std::uint32_t id : {7u, 100u, 399u}) {
      const SparseRow row = random_row(64, 4, rng);
      handles.mut->insert_row(id, row_columns(row), row_values(row));
      model.upsert(id, row);
    }
    for (const std::uint32_t id : {0u, 5u, 250u, 404u}) {
      EXPECT_TRUE(handles.mut->delete_row(id));
      model.erase(id);
    }
    EXPECT_EQ(handles.mut->live_rows(), 412u - 4u);
    expect_matches_oracle(*handles.index, model, 25, 93, "pre-compaction");

    persist::Compactor compactor(
        handles.typed, dir() / ("r" + std::to_string(replicas)));
    const auto report = compactor.compact();
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->generation, 1u);
    EXPECT_EQ(report->folded_rows, 412u);
    EXPECT_EQ(report->tombstones, 4u);
    EXPECT_EQ(report->residual_mutations, 0u);
    EXPECT_TRUE(std::filesystem::exists(report->dir / persist::kManifestFilename));
    EXPECT_EQ(handles.mut->delta_stats().generation, 1u);
    EXPECT_EQ(handles.mut->delta_stats().mutations_since_seal, 0u);
    EXPECT_EQ(handles.mut->live_rows(), 412u - 4u);
    expect_matches_oracle(*handles.index, model, 25, 93, "post-compaction");

    // Round two exercises the inherited-tombstone paths: revive one
    // folded deletion via upsert, delete another row, fold again.
    const SparseRow revived = random_row(64, 6, rng);
    handles.mut->insert_row(5, row_columns(revived), row_values(revived));
    model.upsert(5, revived);
    EXPECT_TRUE(handles.mut->delete_row(42));
    model.erase(42);
    expect_matches_oracle(*handles.index, model, 25, 94, "post-revival");

    const auto second = compactor.compact();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->generation, 2u);
    EXPECT_EQ(second->tombstones, 4u);  // 0, 250, 404 inherited + 42; 5 revived
    expect_matches_oracle(*handles.index, model, 25, 94, "generation 2");
    ASSERT_EQ(compactor.history().size(), 2u);
    EXPECT_GT(second->total_seconds, 0.0);
  }
}

TEST_F(MutableIndexTest, TombstoningAnEntireShardStillGathersExactly) {
  const auto matrix = shared_matrix(200, 32, 5.0, 95);
  auto handles = build_mutable(matrix, "exact-sort", 4, 1);
  LogicalModel model(*matrix);
  // Wipe out every row of sealed shard 0: its scatter calls return
  // only masked candidates, and the gather must still produce the
  // exact global top-k from the remaining shards.
  const core::Partition range = handles.typed->base()->shard(0).range;
  ASSERT_GT(range.rows(), 0u);
  for (std::uint32_t id = range.row_begin; id < range.row_end; ++id) {
    EXPECT_TRUE(handles.mut->delete_row(id));
    model.erase(id);
  }
  expect_matches_oracle(*handles.index, model, 15, 96, "empty shard");

  persist::Compactor compactor(handles.typed, dir());
  ASSERT_TRUE(compactor.compact().has_value());
  expect_matches_oracle(*handles.index, model, 15, 96, "empty shard folded");
}

TEST_F(MutableIndexTest, TopKBeyondLiveRowsReturnsExactlyTheLiveRows) {
  const auto matrix = shared_matrix(30, 32, 4.0, 97);
  auto handles = build_mutable(matrix, "exact-sort", 2, 1);
  LogicalModel model(*matrix);
  for (std::uint32_t id = 0; id < 25; ++id) {
    EXPECT_TRUE(handles.mut->delete_row(id));
    model.erase(id);
  }
  EXPECT_EQ(handles.mut->live_rows(), 5u);
  // top_k far above live_rows: every live row comes back, no deleted
  // id ever does — before and after the fold.
  util::Xoshiro256 rng(98);
  const auto x = sparse::generate_dense_vector(32, rng);
  const auto result = handles.index->query(x, 20);
  EXPECT_EQ(result.entries.size(), 5u);
  for (const core::TopKEntry& entry : result.entries) {
    EXPECT_GE(entry.index, 25u);
  }
  expect_matches_oracle(*handles.index, model, 20, 99, "sparse survivors");

  persist::Compactor compactor(handles.typed, dir());
  ASSERT_TRUE(compactor.compact().has_value());
  EXPECT_EQ(handles.index->query(x, 20).entries, result.entries);
  expect_matches_oracle(*handles.index, model, 20, 99, "folded survivors");
}

TEST_F(MutableIndexTest, ShardsAreOverAskedOnlyByTheirOwnMaskedRows) {
  // 30 deletes, all in shard 0, against top_k = 10: shard 0 must be
  // asked for top_k + 30 candidates to stay exact, but the other
  // shards lose nothing at the merge and are asked for top_k alone.
  const auto matrix = shared_matrix(400, 32, 5.0, 110);
  auto handles = build_mutable(matrix, "exact-sort", 4, 1);
  LogicalModel model(*matrix);
  const auto base = handles.typed->base();
  const core::Partition first = base->shard(0).range;
  ASSERT_GT(first.rows(), 30u);
  for (std::uint32_t id = first.row_begin; id < first.row_begin + 30; ++id) {
    EXPECT_TRUE(handles.mut->delete_row(id));
    model.erase(id);
  }
  constexpr int kTopK = 10;
  expect_matches_oracle(*handles.index, model, kTopK, 111, "shard-0 deletes");

  util::Xoshiro256 rng(112);
  const std::vector<std::vector<float>> queries{
      sparse::generate_dense_vector(32, rng),
      sparse::generate_dense_vector(32, rng)};
  auto results = handles.index->query_batch(queries, kTopK);
  results.push_back(handles.index->query(queries[0], kTopK));
  for (const index::QueryResult& result : results) {
    const index::MutableTierStats* stats = index::mutable_stats(result);
    ASSERT_NE(stats, nullptr);
    std::uint64_t bound = stats->delta_candidates;
    for (std::size_t s = 0; s < base->shard_count(); ++s) {
      const std::uint64_t masked = s == 0 ? 30 : 0;
      bound += std::min<std::uint64_t>(base->shard(s).range.rows(),
                                       kTopK + masked);
    }
    EXPECT_LE(stats->shard.gathered_candidates, bound);
  }
}

// -------------------------------------------------------- mutation edge cases

TEST(MutableShardedTest, DeleteOfNonexistentRowThrows) {
  const auto matrix = shared_matrix(50, 32, 4.0, 101);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1);
  EXPECT_THROW((void)handles.mut->delete_row(50), std::invalid_argument);
  EXPECT_THROW((void)handles.mut->delete_row(57), std::invalid_argument);
  EXPECT_THROW(handles.mut->insert_row(51, {}, {}), std::invalid_argument);
  EXPECT_EQ(handles.mut->live_rows(), 50u);
  EXPECT_EQ(handles.mut->delta_stats().mutations_since_seal, 0u);
}

TEST(MutableShardedTest, ReinsertAfterDeleteRevivesTheId) {
  const auto matrix = shared_matrix(60, 32, 4.0, 102);
  auto handles = build_mutable(matrix, "exact-sort", 2, 1);
  LogicalModel model(*matrix);
  EXPECT_TRUE(handles.mut->delete_row(10));
  EXPECT_FALSE(handles.mut->delete_row(10));
  model.erase(10);
  EXPECT_EQ(handles.mut->live_rows(), 59u);
  expect_matches_oracle(*handles.index, model, 10, 103, "deleted");

  util::Xoshiro256 rng(104);
  const SparseRow row = random_row(32, 5, rng);
  handles.mut->insert_row(10, row_columns(row), row_values(row));
  model.upsert(10, row);
  EXPECT_EQ(handles.mut->live_rows(), 60u);
  EXPECT_EQ(handles.mut->delta_stats().tombstones, 0u);
  expect_matches_oracle(*handles.index, model, 10, 103, "revived");
}

TEST_F(MutableIndexTest, EmptyDeltaCompactionIsANoOp) {
  const auto matrix = shared_matrix(80, 32, 4.0, 105);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1);
  persist::Compactor compactor(handles.typed, dir());
  EXPECT_FALSE(compactor.compact().has_value());
  EXPECT_EQ(handles.mut->delta_stats().generation, 0u);
  EXPECT_FALSE(std::filesystem::exists(dir() / "gen-1"));
  EXPECT_TRUE(compactor.history().empty());

  // After a real compaction the delta is sealed again: an immediate
  // second compact() is the same no-op at the next generation.
  (void)append_single(*handles.mut, 0, 0.5f);
  ASSERT_TRUE(compactor.compact().has_value());
  EXPECT_FALSE(compactor.compact().has_value());
  EXPECT_EQ(handles.mut->delta_stats().generation, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir() / "gen-2"));
}

TEST_F(MutableIndexTest, CapacityBackpressureLiftsAfterCompaction) {
  const auto matrix = shared_matrix(40, 32, 4.0, 106);
  index::IndexOptions options;
  options.delta_capacity = 2;
  options.compact_threshold = 8;
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1, options);
  EXPECT_EQ(handles.mut->delta_stats().delta_capacity, 2u);
  EXPECT_EQ(handles.mut->delta_stats().compact_threshold, 8u);

  (void)append_single(*handles.mut, 0, 0.5f);
  (void)append_single(*handles.mut, 1, 0.5f);
  EXPECT_THROW((void)append_single(*handles.mut, 2, 0.5f),
               std::runtime_error);

  // Two mutations is under the threshold of 8 — maybe_compact holds
  // off; an explicit compact() folds the delta and frees the capacity.
  persist::Compactor compactor(handles.typed, dir());
  EXPECT_FALSE(compactor.maybe_compact().has_value());
  ASSERT_TRUE(compactor.compact().has_value());
  EXPECT_EQ(append_single(*handles.mut, 2, 0.5f), 42u);

  // Seven more mutations reach the threshold and maybe_compact fires.
  for (int i = 0; i < 7; ++i) {
    (void)handles.mut->delete_row(static_cast<std::uint32_t>(i));
    if (i < 6) {
      EXPECT_FALSE(compactor.maybe_compact().has_value());
    }
  }
  const auto report = compactor.maybe_compact();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->generation, 2u);
}

TEST(MutableShardedTest, CompactionGuardIsExclusiveAndAbortable) {
  const auto matrix = shared_matrix(60, 32, 4.0, 107);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1);
  (void)append_single(*handles.mut, 0, 0.5f);
  auto ticket = handles.typed->begin_compaction();
  ASSERT_TRUE(ticket.has_value());
  EXPECT_THROW((void)handles.typed->begin_compaction(), std::logic_error);
  handles.typed->abort_compaction();
  // The guard is free again and the index kept serving generation 0.
  EXPECT_EQ(handles.mut->delta_stats().generation, 0u);
  auto second = handles.typed->begin_compaction();
  ASSERT_TRUE(second.has_value());
  handles.typed->abort_compaction();

  // A next generation of the wrong shape is rejected before any swap.
  const auto folded = MutableShardedIndex::fold(*second);
  EXPECT_EQ(folded.matrix.rows(), 61u);  // 60 base rows + 1 append
  EXPECT_TRUE(folded.retired.empty());
  const auto wrong = shared_matrix(10, 32, 4.0, 108);
  EXPECT_THROW((void)handles.typed->finish_compaction(
                   *second, test::build_test_sharded(wrong, 2, "cpu-heap"),
                   wrong, {}),
               std::invalid_argument);
  handles.typed->abort_compaction();
}

// ------------------------------------------------- concurrency during swap

TEST_F(MutableIndexTest, ConcurrentQueriesDuringCompactionSwapNeverFail) {
  // Four query threads run flat out while the main thread compacts
  // twice and a mutator appends rows.  No query may throw, block on
  // the swap, return a deleted id, or see a malformed top-k — and the
  // final settled state must still pass the oracle gate.
  const auto matrix = shared_matrix(300, 32, 5.0, 109);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1);
  LogicalModel model(*matrix);
  const std::vector<std::uint32_t> deleted{3, 77};
  for (const std::uint32_t id : deleted) {
    ASSERT_TRUE(handles.mut->delete_row(id));
    model.erase(id);
  }

  constexpr int kTopK = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> readers;
  std::set<std::uint64_t> generations;
  std::mutex generations_mutex;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      util::Xoshiro256 rng(200 + static_cast<std::uint64_t>(t));
      std::set<std::uint64_t> seen;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const auto x = sparse::generate_dense_vector(32, rng);
          const auto result = handles.index->query(x, kTopK);
          bool ok =
              result.entries.size() == static_cast<std::size_t>(kTopK);
          for (std::size_t i = 0; ok && i < result.entries.size(); ++i) {
            const core::TopKEntry& entry = result.entries[i];
            ok = !std::binary_search(deleted.begin(), deleted.end(),
                                     entry.index) &&
                 (i == 0 || !core::topk_entry_before(entry,
                                                     result.entries[i - 1]));
          }
          const auto* stats = index::mutable_stats(result);
          ok = ok && stats != nullptr;
          if (stats != nullptr) {
            seen.insert(stats->generation);
          }
          if (!ok) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const std::lock_guard<std::mutex> lock(generations_mutex);
      generations.insert(seen.begin(), seen.end());
    });
  }
  // One mutator thread appends deterministic rows: ids are sequential
  // because it is the only concurrent mutation source, so the logical
  // model can be mirrored after the fact.
  std::vector<SparseRow> appended;
  {
    util::Xoshiro256 rng(110);
    for (int i = 0; i < 120; ++i) {
      appended.push_back(random_row(32, 4, rng));
    }
  }
  std::thread mutator([&] {
    for (const SparseRow& row : appended) {
      (void)handles.mut->insert_row(row_columns(row), row_values(row));
      std::this_thread::yield();
    }
  });

  persist::Compactor compactor(handles.typed, dir());
  const auto first = compactor.compact();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->generation, 1u);
  mutator.join();
  const auto second = compactor.compact();  // residual appends, if any
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) {
    reader.join();
  }

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_FALSE(generations.empty());
  const std::uint64_t final_generation = second.has_value() ? 2u : 1u;
  EXPECT_EQ(handles.mut->delta_stats().generation, final_generation);
  for (const std::uint64_t g : generations) {
    EXPECT_LE(g, final_generation);
  }

  for (const SparseRow& row : appended) {
    model.append(row);
  }
  expect_matches_oracle(*handles.index, model, 15, 111, "settled");
}

// ------------------------------------------------------------ warm restarts

TEST_F(MutableIndexTest, WarmRestartAdoptsGenerationAndTombstones) {
  const auto matrix = shared_matrix(150, 32, 5.0, 112);
  auto handles = build_mutable(matrix, "exact-sort", 2, 2);
  LogicalModel model(*matrix);
  util::Xoshiro256 rng(113);
  for (int i = 0; i < 6; ++i) {
    const SparseRow row = random_row(32, 4, rng);
    (void)handles.mut->insert_row(row_columns(row), row_values(row));
    model.append(row);
  }
  for (const std::uint32_t id : {9u, 33u}) {
    ASSERT_TRUE(handles.mut->delete_row(id));
    model.erase(id);
  }
  persist::Compactor compactor(handles.typed, dir());
  const auto report = compactor.compact();
  ASSERT_TRUE(report.has_value());

  // A fresh process resumes from the generation image alone: the v2
  // manifest supplies the generation, the inherited tombstones, and
  // the replica fan-out comes from the options.
  index::IndexOptions warm_options;
  warm_options.deployment_dir = report->dir.string();
  warm_options.replicas = 2;
  const auto warm = index::make_index("mutable-sharded-exact-sort", nullptr,
                                      warm_options);
  const auto warm_mut = index::as_mutable(warm);
  ASSERT_NE(warm_mut, nullptr);
  EXPECT_EQ(warm_mut->delta_stats().generation, 1u);
  EXPECT_EQ(warm_mut->rows(), 156u);
  EXPECT_EQ(warm_mut->live_rows(), 154u);
  expect_matches_oracle(*warm, model, 12, 114, "warm restart");

  // The warm index stays fully mutable: it can absorb new mutations
  // and fold them into generation 2 (the exact-sort images carry the
  // host matrix, so the fold has something to fold against).
  ASSERT_TRUE(warm_mut->delete_row(100));
  model.erase(100);
  const SparseRow row = random_row(32, 5, rng);
  (void)warm_mut->insert_row(row_columns(row), row_values(row));
  model.append(row);
  expect_matches_oracle(*warm, model, 12, 115, "warm + mutated");

  persist::Compactor warm_compactor(
      std::dynamic_pointer_cast<MutableShardedIndex>(warm), dir() / "warm");
  const auto second = warm_compactor.compact();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->generation, 2u);
  EXPECT_EQ(second->tombstones, 3u);  // 9, 33 inherited + 100
  expect_matches_oracle(*warm, model, 12, 115, "warm generation 2");
}

TEST_F(MutableIndexTest, FpgaWarmLoadServesButRefusesToCompact) {
  // An fpga-sim warm load serves its quantised device image only — no
  // host matrix to fold against, so compaction must refuse cleanly
  // while queries keep working.
  const auto matrix = shared_matrix(120, 64, 6.0, 116);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  auto handles = build_mutable(matrix, "fpga-sim", 2, 1, options);
  (void)handles.mut->delete_row(11);
  persist::Compactor compactor(handles.typed, dir());
  const auto report = compactor.compact();
  ASSERT_TRUE(report.has_value());  // cold build retains the matrix

  index::IndexOptions warm_options = options;
  warm_options.deployment_dir = report->dir.string();
  const auto warm =
      index::make_index("mutable-sharded-fpga-sim", nullptr, warm_options);
  const auto warm_mut = index::as_mutable(warm);
  ASSERT_NE(warm_mut, nullptr);
  EXPECT_EQ(warm_mut->delta_stats().generation, 1u);

  // Same sealed generation, empty deltas on both sides: bit-identical.
  util::Xoshiro256 rng(117);
  const auto x = sparse::generate_dense_vector(64, rng);
  EXPECT_EQ(warm->query(x, 10).entries, handles.index->query(x, 10).entries);

  (void)warm_mut->delete_row(40);
  persist::Compactor warm_compactor(
      std::dynamic_pointer_cast<MutableShardedIndex>(warm), dir() / "warm");
  EXPECT_THROW((void)warm_compactor.compact(), std::runtime_error);
  // The refusal left no claimed guard and no swapped state behind.
  EXPECT_EQ(warm_mut->delta_stats().generation, 1u);
  EXPECT_EQ(warm->query(x, 10).entries.size(), 10u);
  EXPECT_THROW((void)warm_compactor.compact(), std::runtime_error);
}

// -------------------------------------------------------- registry + stats

TEST(MutableRegistryTest, MutableBackendsAreRegisteredAndTyped) {
  const auto names = index::registered_backends();
  for (const char* name :
       {"mutable-sharded-fpga-sim", "mutable-sharded-cpu-heap",
        "mutable-sharded-exact-sort", "mutable-sharded-gpu-f16"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
  const auto matrix = shared_matrix(40, 32, 4.0, 118);
  // Sealed backends stay sealed: as_mutable is the typed gate.
  EXPECT_EQ(index::as_mutable(index::make_index("cpu-heap", matrix)), nullptr);
  EXPECT_EQ(index::as_mutable(index::make_index("sharded-exact-sort", matrix)),
            nullptr);
  EXPECT_THROW((void)index::make_index("mutable-sharded-cpu-heap", nullptr),
               std::invalid_argument);

  index::IndexOptions options;
  options.shards = 2;
  options.delta_capacity = 16;
  options.compact_threshold = 8;
  const auto built =
      index::make_index("mutable-sharded-cpu-heap", matrix, options);
  const auto mut = index::as_mutable(built);
  ASSERT_NE(mut, nullptr);
  EXPECT_EQ(mut->delta_stats().delta_capacity, 16u);
  EXPECT_EQ(mut->delta_stats().compact_threshold, 8u);
  EXPECT_EQ(built->describe().backend, "mutable-sharded-cpu-heap");
}

TEST(MutableRegistryTest, QueryStatsExposeTheMutableTier) {
  const auto matrix = shared_matrix(100, 32, 4.0, 119);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 2);
  util::Xoshiro256 rng(120);
  const SparseRow row = random_row(32, 4, rng);
  (void)handles.mut->insert_row(row_columns(row), row_values(row));
  (void)handles.mut->delete_row(17);

  const auto x = sparse::generate_dense_vector(32, rng);
  const auto result = handles.index->query(x, 10);
  const auto* stats = index::mutable_stats(result);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->generation, 0u);
  EXPECT_EQ(stats->delta_scanned, 1u);
  EXPECT_EQ(stats->masked_rows, 1u);  // the tombstoned base id
  EXPECT_LE(stats->delta_candidates, 1u);
  // Dashboards written against the sealed tier read the same result:
  // shard_stats() surfaces the embedded gather stats.
  const auto* shard = index::shard_stats(result);
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->replicas, 2);
  EXPECT_GE(result.stats.rows_scanned, 100u);
}

// ------------------------------------------------ stats-vs-mutation races

TEST(MutableShardedTest, ConcurrentDeltaStats) {
  // Regression for the unlocked DeltaIndex::delta_rows(): stats
  // readers (delta_stats()/describe() walking the version map) raced
  // concurrent mutations rebalancing it.  Under TSan this test is the
  // proof; under plain builds it still checks the settled counters.
  const auto matrix = shared_matrix(200, 32, 4.0, 211);
  auto handles = build_mutable(matrix, "cpu-heap", 2, 1);

  constexpr int kAppendThreads = 2;
  constexpr int kAppendsPerThread = 150;
  constexpr std::uint32_t kDeletes = 60;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const index::DeltaStats stats = handles.mut->delta_stats();
        // Bounds that hold at every instant of the run, whatever
        // interleaving the snapshot lands on.
        EXPECT_LE(stats.tombstones, kDeletes);
        EXPECT_LE(stats.delta_rows,
                  static_cast<std::uint64_t>(kAppendThreads) *
                      kAppendsPerThread);
        EXPECT_LE(stats.delta_rows + stats.tombstones,
                  stats.mutations_since_seal);
        const index::IndexDescription description = handles.index->describe();
        EXPECT_GE(description.rows, matrix->rows());
        EXPECT_LE(handles.mut->live_rows(),
                  static_cast<std::uint64_t>(matrix->rows()) +
                      static_cast<std::uint64_t>(kAppendThreads) *
                          kAppendsPerThread);
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> mutators;
  for (int t = 0; t < kAppendThreads; ++t) {
    mutators.emplace_back([&, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        (void)append_single(*handles.mut,
                            static_cast<std::uint32_t>((t * 7 + i) % 32),
                            0.25f);
      }
    });
  }
  mutators.emplace_back([&] {
    for (std::uint32_t id = 0; id < kDeletes; ++id) {
      EXPECT_TRUE(handles.mut->delete_row(id));
    }
  });
  for (auto& thread : mutators) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_GT(snapshots.load(std::memory_order_relaxed), 0u);

  const index::DeltaStats settled = handles.mut->delta_stats();
  EXPECT_EQ(settled.delta_rows,
            static_cast<std::uint64_t>(kAppendThreads) * kAppendsPerThread);
  EXPECT_EQ(settled.tombstones, kDeletes);
  EXPECT_EQ(settled.mutations_since_seal,
            static_cast<std::uint64_t>(kAppendThreads) * kAppendsPerThread +
                kDeletes);
  EXPECT_EQ(handles.mut->live_rows(),
            static_cast<std::uint64_t>(matrix->rows()) - kDeletes +
                static_cast<std::uint64_t>(kAppendThreads) *
                    kAppendsPerThread);
}

}  // namespace
}  // namespace topk::shard
