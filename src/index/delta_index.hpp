// In-memory delta tier of a mutable index: the LSM memtable.
//
// A DeltaIndex absorbs insert_row/delete_row mutations under a
// shared-mutex (concurrent queries take the lock shared, mutations
// exclusive) and serves them by brute-force exact scan — double
// accumulation in ascending-column order, the same arithmetic as
// sparse::Csr::row_dot, so a delta row scores bit-identically to the
// same row in a cold-rebuilt CSR matrix.  It stores at most one
// version per global row id (an upsert replaces, a delete tombstones),
// plus the inherited tombstone set: ids whose deletion a previous
// compaction folded into the sealed base as empty rows, which must
// stay masked forever (an empty live row legitimately scores 0.0; a
// deleted one must never serve at all).
//
// scan() is the query-path entry: the top-k live delta rows (global
// ids, repo-wide topk_entry_before order) plus the sorted set of base
// ids the sealed tier must mask (tombstoned, inherited, or superseded
// by a delta version) — exactly the two fields of the
// shard::ShardedIndex::DeltaOverlay that the sealed tier's one scatter
// path merges through the k-way gather.  snapshot() gives the compactor a consistent copy to fold
// off the serving path; every version carries a sequence number so the
// swap can split off the residual mutations that arrived while the
// fold ran.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "index/similarity_index.hpp"
#include "util/sync.hpp"

namespace topk::index {

/// One row mutation: the latest version of a global row id.
struct DeltaVersion {
  /// Mutation sequence number within the current generation (1-based;
  /// the compaction watermark splits folded from residual versions).
  std::uint64_t seq = 0;
  bool tombstone = false;
  /// Sorted unique column indices and their values (empty for a
  /// tombstone).
  std::vector<std::uint32_t> columns;
  std::vector<float> values;
};

/// Mutable in-memory row store over the id space [0, next_id), where
/// ids below base_rows belong to the sealed base.  Thread-safe.
class DeltaIndex final {
 public:
  /// Consistent copy of the whole delta — the compactor's fold input.
  struct Snapshot {
    std::uint32_t base_rows = 0;
    std::uint32_t next_id = 0;
    /// Watermark: every version in this snapshot has seq <= seq.
    std::uint64_t seq = 0;
    /// (id, version) ascending by id.
    std::vector<std::pair<std::uint32_t, DeltaVersion>> versions;
    /// Inherited tombstones (sorted): deletions already folded into
    /// the base as empty rows.
    std::vector<std::uint32_t> inherited;
  };

  /// Query-path snapshot: what the gather merges with the sealed base.
  struct Scan {
    /// Top-k live delta rows by exact score, global ids, sorted by
    /// core::topk_entry_before.
    std::vector<core::TopKEntry> entries;
    /// Sorted base ids (< base_rows) the sealed tier must not serve:
    /// tombstoned, inherited, or superseded by a delta version.
    std::vector<std::uint32_t> masked;
    /// Live delta rows scored by this scan.
    std::uint64_t scanned = 0;
  };

  /// An empty delta over a sealed base of `base_rows` rows (gen-0
  /// shape).  `capacity` bounds the live delta rows (inserts beyond it
  /// throw — backpressure towards compaction); 0 means unbounded.
  DeltaIndex(std::uint32_t base_rows, std::uint32_t cols,
             std::uint64_t capacity);

  /// Post-compaction shape: the id space already extends to `next_id`
  /// >= base_rows, `inherited` (strictly increasing) carries the folded
  /// deletions, and `versions` the residual mutations that arrived
  /// while the fold ran (their seq values are preserved; `next_seq`
  /// continues the generation's mutation clock).  Throws
  /// std::invalid_argument on an out-of-range id or an inherited list
  /// that is unsorted or repeats an id.
  DeltaIndex(std::uint32_t base_rows, std::uint32_t next_id,
             std::uint32_t cols, std::uint64_t capacity,
             std::vector<std::uint32_t> inherited,
             std::map<std::uint32_t, DeltaVersion> versions,
             std::uint64_t next_seq);

  // ---- mutations (exclusive lock) ----

  /// Appends at id = next_id and returns it.  Validation as in
  /// MutableIndex::insert_row.
  std::uint32_t append_row(std::span<const std::uint32_t> columns,
                           std::span<const float> values);

  /// Upserts at `row` <= next_id (== next_id appends); revives a
  /// deleted id.
  void upsert_row(std::uint32_t row, std::span<const std::uint32_t> columns,
                  std::span<const float> values);

  /// Tombstones a live row; false if already deleted.  Throws
  /// std::invalid_argument for row >= next_id.
  bool delete_row(std::uint32_t row);

  // ---- query path (shared lock) ----

  [[nodiscard]] Scan scan(std::span<const float> x, int top_k) const;

  // ---- counters (shared lock) ----

  /// The id high-water mark next_id (the delta has no private id
  /// space: scan() entries carry global row ids).
  [[nodiscard]] std::uint32_t rows() const noexcept;
  /// Bytes of row data held by the versions.
  [[nodiscard]] std::uint64_t memory_bytes() const;
  [[nodiscard]] std::uint32_t base_rows() const noexcept { return base_rows_; }
  /// Live rows of the whole mutable index: next_id minus deleted ids.
  [[nodiscard]] std::uint64_t live_rows() const;
  /// Live row versions held here (what a compaction folds).
  [[nodiscard]] std::uint64_t delta_rows() const;
  /// Currently deleted ids (tombstone versions + unrevived inherited).
  [[nodiscard]] std::uint64_t tombstones() const;
  /// Base ids hidden because a newer version lives here.
  [[nodiscard]] std::uint64_t superseded() const;
  /// Mutations absorbed since this delta was installed.
  [[nodiscard]] std::uint64_t mutations() const;
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Consistent copy for the compactor (shared lock; the pause this
  /// copy imposes on concurrent mutations is the memtable-freeze cost
  /// bench_mutability reports).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// True when `row` serves no result (tombstoned or inherited and not
  /// revived).
  [[nodiscard]] bool is_deleted_locked(std::uint32_t row) const
      TOPK_REQUIRES_SHARED(mutex_);
  /// Validates and canonicalises one inserted row (sort by column,
  /// reject duplicates/out-of-range), then stores it.
  void store_row_locked(std::uint32_t row,
                        std::span<const std::uint32_t> columns,
                        std::span<const float> values) TOPK_REQUIRES(mutex_);
  /// Lock-held core of delta_rows(), shared with store_row_locked's
  /// capacity check (shared_mutex is not recursive, so the public
  /// method locks and this one assumes).
  [[nodiscard]] std::uint64_t delta_rows_locked() const
      TOPK_REQUIRES_SHARED(mutex_);

  const std::uint32_t base_rows_;
  const std::uint32_t cols_;
  const std::uint64_t capacity_;

  mutable util::SharedMutex mutex_;
  std::uint32_t next_id_ TOPK_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ TOPK_GUARDED_BY(mutex_) = 0;
  std::uint64_t mutations_ TOPK_GUARDED_BY(mutex_) = 0;
  /// cached tombstones() value
  std::uint64_t deleted_ TOPK_GUARDED_BY(mutex_) = 0;
  std::map<std::uint32_t, DeltaVersion> versions_ TOPK_GUARDED_BY(mutex_);
  std::vector<std::uint32_t> inherited_ TOPK_GUARDED_BY(mutex_);  ///< sorted
};

}  // namespace topk::index
