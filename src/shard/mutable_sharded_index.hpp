// Mutable sharded tier: the LSM composition of a sealed ShardedIndex
// base with an in-memory index::DeltaIndex absorbing mutations.
//
// Queries scan the delta (exact, brute-force) and hand the scan to the
// sealed base's one scatter path (ShardedIndex::query_with_delta) as
// a ShardedIndex::DeltaOverlay: delta candidates join the
// deterministic k-way gather as one more source, and tombstoned /
// superseded / inherited base rows are masked before the Top-K cut —
// so every post-mutation result is bit-identical to an exact index
// built cold from the logically-equivalent matrix (the live rows in
// ascending id order), at any replica count and thread count.
//
// Compaction (persist::Compactor) folds base + delta into a fresh
// generation-stamped deployment image off the serving path, warm-loads
// it, and swaps it in through the three-call protocol here
// (begin_compaction / finish_compaction / abort_compaction).  Serving
// is never blocked: queries copy the current State under a brief
// shared lock and keep the old generation alive through shared_ptr
// ownership until their calls return; the only exclusive sections are
// the delta snapshot copy and the pointer swap itself.  Mutations that
// arrive while a fold runs carry sequence numbers above the snapshot
// watermark and are re-seeded into the fresh delta at swap time, so
// nothing is lost and nothing is applied twice.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "index/delta_index.hpp"
#include "index/mutable_index.hpp"
#include "shard/shard_planner.hpp"
#include "shard/sharded_index.hpp"
#include "sparse/csr.hpp"
#include "util/sync.hpp"

namespace topk::shard {

/// Everything needed to cold-rebuild the sealed tier over a folded
/// matrix: compaction re-runs the original construction recipe, so a
/// generation-N index has the same shard policy, inner backend,
/// replica count and routing as generation 0.
struct RebuildRecipe {
  int shards = 4;
  ShardPolicy policy = ShardPolicy::kNnzBalanced;
  int replicas = 1;
  RoutingPolicy routing = RoutingPolicy::kLeastLoaded;
  std::string inner_backend = "cpu-heap";
  index::IndexOptions inner_options;
  /// Label of the sealed base ("sharded-<inner>") — also the manifest
  /// label of every generation's deployment image.
  std::string label = "sharded-cpu-heap";
};

/// Knobs of the mutable tier.
struct MutableConfig {
  /// Live delta rows beyond which inserts throw (backpressure towards
  /// compaction); 0 = unbounded.
  std::uint64_t delta_capacity = 0;
  /// Mutations since the last seal at which Compactor::maybe_compact()
  /// fires; 0 = compact only on explicit request.
  std::uint64_t compact_threshold = 0;
  /// describe().backend of the mutable tier, e.g.
  /// "mutable-sharded-cpu-heap".
  std::string label = "mutable-sharded";
};

/// The LSM-shaped mutable index over a sealed sharded base.
/// Thread-safe for any mix of queries, mutations and one concurrent
/// compaction.
class MutableShardedIndex final : public index::MutableIndex {
 public:
  /// Wraps a freshly built (generation 0) or warm-loaded (generation =
  /// the manifest's) sealed base.  `base_matrix` is the host CSR the
  /// base was built from — compaction folds against it; it may be null
  /// (e.g. an fpga-sim warm load, whose quantised device image cannot
  /// reproduce the exact host values), in which case begin_compaction
  /// throws.  `inherited` seeds the delta's inherited-tombstone set
  /// (strictly increasing ids a previous generation folded away as
  /// empty rows; anything else throws std::invalid_argument).
  MutableShardedIndex(std::shared_ptr<const ShardedIndex> base,
                      std::shared_ptr<const sparse::Csr> base_matrix,
                      RebuildRecipe recipe, MutableConfig config,
                      std::uint64_t generation = 0,
                      std::vector<std::uint32_t> inherited = {});

  // ---- MutableIndex surface ----

  std::uint32_t insert_row(std::span<const std::uint32_t> columns,
                           std::span<const float> values) override;
  void insert_row(std::uint32_t row, std::span<const std::uint32_t> columns,
                  std::span<const float> values) override;
  bool delete_row(std::uint32_t row) override;
  [[nodiscard]] std::uint64_t live_rows() const override;
  [[nodiscard]] index::DeltaStats delta_stats() const override;

  // ---- SimilarityIndex surface ----

  [[nodiscard]] index::QueryResult query(
      std::span<const float> x, int top_k,
      const index::QueryOptions& options = {}) const override;
  [[nodiscard]] std::vector<index::QueryResult> query_batch(
      const std::vector<std::vector<float>>& queries, int top_k,
      const index::QueryOptions& options = {}) const override;
  /// Id high-water mark: base rows + delta appends (deleted ids stay
  /// counted; see live_rows()).
  [[nodiscard]] std::uint32_t rows() const noexcept override;
  [[nodiscard]] std::uint32_t cols() const noexcept override;
  [[nodiscard]] index::IndexDescription describe() const override;
  [[nodiscard]] int max_top_k() const noexcept override;

  /// The sealed base currently serving (the generation a concurrent
  /// compaction would replace).  Mainly for stats/tests; queries hold
  /// their own reference, so this pointer may be superseded at any
  /// time.
  [[nodiscard]] std::shared_ptr<const ShardedIndex> base() const;
  [[nodiscard]] const RebuildRecipe& recipe() const noexcept {
    return recipe_;
  }
  [[nodiscard]] const MutableConfig& config() const noexcept {
    return config_;
  }

  // ---- compaction protocol (driven by persist::Compactor) ----

  /// Consistent fold input handed to the compactor.
  struct CompactionTicket {
    std::uint64_t generation = 0;  ///< the generation being replaced
    index::DeltaIndex::Snapshot snapshot;
    std::shared_ptr<const sparse::Csr> base_matrix;
    RebuildRecipe recipe;
    /// Duration of the delta snapshot copy — the only pause mutations
    /// observe during a compaction.
    double snapshot_seconds = 0.0;
  };

  /// The folded (logically-equivalent) matrix plus the ids it retired:
  /// every deleted id < matrix.rows(), folded away as an empty row and
  /// masked forever via the next delta's inherited set.
  struct FoldedMatrix {
    sparse::Csr matrix;
    std::vector<std::uint32_t> retired;  ///< sorted
  };

  /// Claims the single-compactor guard and snapshots the delta.
  /// Returns std::nullopt — without claiming the guard — when the
  /// delta has absorbed no mutation since the last seal (the
  /// empty-delta no-op).  Throws std::logic_error if a compaction is
  /// already in flight and std::runtime_error when no host base matrix
  /// is available to fold against.
  [[nodiscard]] std::optional<CompactionTicket> begin_compaction();

  /// Folds the ticket's base + delta into the full matrix of the next
  /// generation: rows [0, snapshot.next_id), each the latest live
  /// version (delta version if present, else the base row), deleted
  /// ids as empty rows recorded in `retired`.  Pure function of the
  /// ticket — runs off every lock.
  [[nodiscard]] static FoldedMatrix fold(const CompactionTicket& ticket);

  /// Atomically installs the next generation: the warm-loaded sealed
  /// base over the folded matrix, and a fresh delta seeded with
  /// `retired` as inherited tombstones plus every mutation that
  /// arrived after the ticket's snapshot (seq > snapshot.seq).
  /// Releases the compaction guard.  Returns the duration of the
  /// exclusive swap section — the pause concurrent queries/mutations
  /// can observe at swap time.
  double finish_compaction(const CompactionTicket& ticket,
                           std::shared_ptr<const ShardedIndex> next_base,
                           std::shared_ptr<const sparse::Csr> next_matrix,
                           std::vector<std::uint32_t> retired);

  /// Releases the compaction guard after a failed fold/build/save/load
  /// — the current generation keeps serving, nothing was swapped.
  void abort_compaction() noexcept;

 private:
  /// One immutable serving generation; queries copy the shared_ptr
  /// under a brief shared lock and the old generation drains naturally
  /// when the last in-flight query releases its copy.
  struct State {
    std::shared_ptr<const ShardedIndex> base;
    std::shared_ptr<const sparse::Csr> base_matrix;  ///< may be null
    std::shared_ptr<index::DeltaIndex> delta;
    std::uint64_t generation = 0;
  };

  [[nodiscard]] std::shared_ptr<const State> current_state() const;
  /// The one query path behind query and query_batch: scans the delta
  /// of one State copy per query, hands the scans to the sealed base
  /// as overlays, then annotates each result.  Queries are validated.
  [[nodiscard]] std::vector<index::QueryResult> serve(
      std::span<const std::span<const float>> queries, int top_k,
      const index::QueryOptions& options) const;
  [[nodiscard]] index::QueryResult annotate(
      index::QueryResult result, const State& state,
      const index::DeltaIndex::Scan& scan) const;

  RebuildRecipe recipe_;
  MutableConfig config_;

  mutable util::SharedMutex mutex_;
  std::shared_ptr<const State> state_ TOPK_GUARDED_BY(mutex_);
  /// Single-compactor guard (begin_compaction claims, finish/abort
  /// release).
  bool compacting_ TOPK_GUARDED_BY(mutex_) = false;
};

}  // namespace topk::shard
