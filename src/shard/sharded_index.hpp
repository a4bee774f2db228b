// Sharded scatter-gather index tier over any SimilarityIndex backend,
// with per-shard replica sets.
//
// The paper's FPGA design scales Top-K SpMV by partitioning the row
// space across 32 cores and merging per-core Top-K candidates; the
// ShardedIndex lifts the identical pattern to host scale (the
// ROADMAP's "heavy traffic" north star): a collection is split into N
// contiguous row-range shards (shard_planner.hpp), each row range is
// served by R replica inner indexes — mixed backends across shards are
// allowed, e.g. fpga-sim shards with a cpu-heap straggler — and
// queries scatter across the shards on the shared util::ThreadPool.
// Each (query, shard) cell routes to ONE replica by a RoutingPolicy
// (round-robin, or least-loaded on in-flight counts + an EWMA of
// observed wall time) and fails over to the next replica when the
// chosen one throws, so the tier survives a failing inner index and
// scales read throughput across replica devices.  The gather stage is
// a deterministic k-way heap merge on the repo-wide Top-K order
// (core::topk_entry_before) that remaps local row ids to global ids,
// so a sharded index over exact inner backends is bit-identical to
// the unsharded backend on the same matrix at ANY replica count and
// under any failover pattern (tests/test_shard.cpp,
// tests/test_replication.cpp) — replicas of a shard serve the same
// rows with the same backend, so which one answers never changes the
// result.
//
// ShardedIndex is itself a SimilarityIndex, so it serves through
// serve::QueryEngine and sweeps through every registry-driven bench
// unchanged; the registry seeds "sharded-<inner>" factories for all
// built-in backends (index/registry.hpp), replicated via
// IndexOptions::replicas.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "index/backends.hpp"
#include "index/similarity_index.hpp"
#include "shard/shard_planner.hpp"
#include "sparse/csr.hpp"
#include "telemetry/metrics.hpp"
#include "util/sync.hpp"

namespace topk::shard {

/// How a (query, shard) cell picks the replica that serves it.
enum class RoutingPolicy {
  /// Cycle through the healthy replicas per shard — oblivious but
  /// perfectly fair under uniform replicas.
  kRoundRobin,
  /// Route to the healthy replica with the fewest in-flight calls,
  /// ties broken by the lower EWMA of observed per-call wall time
  /// (an unmeasured replica counts as 0 and is explored first), then
  /// by the lower replica id.  The right policy when replicas differ
  /// in speed or share the host with other load.
  kLeastLoaded,
};

[[nodiscard]] std::string to_string(RoutingPolicy policy);

/// One shard: the global row range it serves and the replica set of
/// inner indexes over that range (each replica's local row 0 is global
/// row range.row_begin).  Replicas must be interchangeable — same
/// rows, cols and (for bit-identical serving) the same backend over
/// the same slice; the builder and the deployment loader construct
/// them that way.
struct Shard {
  core::Partition range;
  std::vector<std::shared_ptr<const index::SimilarityIndex>> replicas;

  Shard() = default;
  /// Single-replica convenience, the unreplicated tier's shape.
  Shard(core::Partition shard_range,
        std::shared_ptr<const index::SimilarityIndex> inner)
      : range(shard_range), replicas{std::move(inner)} {}
  Shard(core::Partition shard_range,
        std::vector<std::shared_ptr<const index::SimilarityIndex>> shard_replicas)
      : range(shard_range), replicas(std::move(shard_replicas)) {}

  /// The first replica — the one whose image save_deployment persists
  /// and the benches time for critical-path measurements.
  [[nodiscard]] const index::SimilarityIndex& primary() const {
    return *replicas.front();
  }
};

/// Scatter-gather composite over per-shard replica sets.
///
/// Thread-compatible like every SimilarityIndex.  QueryOptions.threads
/// is the scatter width: shards are claimed dynamically from the
/// shared pool and each cell's chosen replica runs its own path
/// sequentially.  Stats aggregate across shards — rows_scanned sums,
/// modelled_seconds is the max (the critical path of a parallel
/// scatter) — with the gather and routing described by the
/// index::ShardStats extension, and cumulative per-replica health by
/// replica_stats().
class ShardedIndex final : public index::SimilarityIndex {
 public:
  /// Takes ownership of the shard list.  Throws std::invalid_argument
  /// when the list is empty, a shard has no replicas, a replica is
  /// null, the ranges are not contiguous from row 0, a replica's
  /// rows() does not match its range, or the column counts disagree.
  /// `backend_label` is what describe().backend reports (the registry
  /// factories pass their key, e.g. "sharded-cpu-heap").
  explicit ShardedIndex(std::vector<Shard> shards,
                        std::string backend_label = "sharded",
                        RoutingPolicy routing = RoutingPolicy::kLeastLoaded);

  /// One query through the grid scatter below: a grid one query wide.
  [[nodiscard]] index::QueryResult query(
      std::span<const float> x, int top_k,
      const index::QueryOptions& options = {}) const override;

  /// Batch scatter: the (query, shard) grid is claimed dynamically
  /// from the shared pool, then each query's shards gather in input
  /// order — per-query results are identical to query() at any thread
  /// count and under any replica routing.
  [[nodiscard]] std::vector<index::QueryResult> query_batch(
      const std::vector<std::vector<float>>& queries, int top_k,
      const index::QueryOptions& options = {}) const override;

  /// What the mutable tier's delta scan contributes to one query: the
  /// candidates to merge alongside the sealed shards and the base rows
  /// to hide from them (see index::DeltaIndex::scan).  A default
  /// (empty) overlay is a sealed query.
  struct DeltaOverlay {
    /// Top-k live delta rows (GLOBAL ids, sorted by
    /// core::topk_entry_before) — one extra source in the k-way merge,
    /// needing no local-to-global remap.
    std::span<const core::TopKEntry> entries;
    /// Sorted global base ids (< rows()) the merge must skip:
    /// tombstoned, inherited, or superseded rows.
    std::span<const std::uint32_t> masked;
  };

  /// The batch scatter with one delta overlay per query (or none: an
  /// empty `overlays` is query_batch()).  Shard s is asked for
  /// top_k + |masked ∩ its row range| candidates (at most that many of
  /// its top entries can be masked away, so the merge always has
  /// >= top_k live base candidates in reach), masked ids are skipped
  /// as the per-shard heads advance, and the overlay entries compete
  /// as one more sorted source — so each result is bit-identical to a
  /// cold rebuild of the logically-equivalent matrix queried through
  /// the same shard plan.  Throws std::invalid_argument when a query
  /// or top_k is invalid, or the overlay count is neither 0 nor
  /// queries.size().
  [[nodiscard]] std::vector<index::QueryResult> query_with_delta(
      std::span<const std::span<const float>> queries, int top_k,
      std::span<const DeltaOverlay> overlays,
      const index::QueryOptions& options = {}) const;

  [[nodiscard]] std::uint32_t rows() const noexcept override;
  [[nodiscard]] std::uint32_t cols() const noexcept override;
  [[nodiscard]] index::IndexDescription describe() const override;

  /// Sum of the shard caps when every shard is capped (each shard can
  /// surface at most its inner max_top_k candidates); 0 (unbounded)
  /// when any shard is uncapped.  A shard's cap is the smallest cap
  /// among its capped replicas, so a clamped request is safe on
  /// whichever replica serves it.  A capped shard silently contributes
  /// min(top_k, cap) candidates, mirroring the paper's k*cores merge.
  [[nodiscard]] int max_top_k() const noexcept override;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Shard& shard(std::size_t i) const {
    return shards_.at(i);
  }
  [[nodiscard]] std::size_t replica_count(std::size_t i) const {
    return shards_.at(i).replicas.size();
  }
  [[nodiscard]] RoutingPolicy routing() const noexcept { return routing_; }

  /// Snapshot of the cumulative per-replica counters of shard `i` —
  /// queries served, failures absorbed by failover, in-flight calls,
  /// the wall-time EWMA the least-loaded policy routes on, and the
  /// health bit with the last error message.
  [[nodiscard]] std::vector<index::ReplicaStats> replica_stats(
      std::size_t i) const;

 private:
  /// Live counters of one replica, shared by the routing policies and
  /// the stats snapshot.  Mutable runtime state of a const index —
  /// the event counts are telemetry::Counter cells (the registry's
  /// vocabulary, per -Wraw-stat), the routing hints are raw atomics,
  /// and the error record sits under its own mutex.
  ///
  /// Memory ordering: every operation on the atomics is relaxed, on
  /// purpose.  They are monotonic load/health *hints* feeding routing
  /// decisions and advisory stats snapshots — no other memory is
  /// published through them (the query results themselves synchronise
  /// through the thread pool's join), a stale read only makes a pick
  /// marginally less balanced, and failover corrects any mis-route.
  /// Each site carries its own one-line rationale.
  struct ReplicaState {
    telemetry::Counter queries;
    telemetry::Counter failures;
    std::atomic<int> inflight{0};
    std::atomic<double> ewma_seconds{0.0};
    std::atomic<bool> healthy{true};
    mutable util::Mutex error_mutex;
    /// Truncated to kMaxErrorLength — a failing replica under load must
    /// not grow memory with ever-longer exception payloads.
    std::string last_error TOPK_GUARDED_BY(error_mutex);
    /// telemetry::now_seconds() of the most recent failure; -1 = never.
    double last_error_seconds TOPK_GUARDED_BY(error_mutex) = -1.0;
  };

  /// Cap on the stored last_error message (see ReplicaState).
  static constexpr std::size_t kMaxErrorLength = 256;

  /// One (query, shard) cell's outcome: the replica's result plus the
  /// scatter-side measurements the gather aggregates.
  struct ShardCall {
    index::QueryResult result;
    double measured_seconds = 0.0;  ///< wall time of the serving call
    std::uint64_t failovers = 0;    ///< replicas that failed first
  };

  /// Start replica for a cell on shard `s` per the routing policy,
  /// preferring healthy replicas (all-unhealthy falls back to all).
  /// Every 16th pick on a shard with unhealthy replicas probes one of
  /// them instead, so a recovered replica rejoins on its first
  /// successful probe.
  [[nodiscard]] std::size_t pick_replica(std::size_t s) const;

  /// Queries shard `s` with top_k clamped to the shard's cap; entries
  /// come back in local row ids.  Routes to one replica and fails over
  /// cyclically through the rest on error, recording success/failure
  /// in the replica state; rethrows the last error once every replica
  /// has failed.
  [[nodiscard]] ShardCall query_shard(std::size_t s,
                                      std::span<const float> x,
                                      int top_k) const;

  /// The one scatter path behind query, query_batch and
  /// query_with_delta: claims the (query, shard) grid dynamically from
  /// the shared pool, then gathers each query in input order.
  /// `overlays` is empty (sealed) or holds one overlay per query; the
  /// caller has validated the queries and the overlay count.
  [[nodiscard]] std::vector<index::QueryResult> scatter(
      std::span<const std::span<const float>> queries, int top_k,
      std::span<const DeltaOverlay> overlays,
      const index::QueryOptions& options) const;

  /// Deterministic k-way heap merge of per-shard results (local ids)
  /// into one global result, aggregating stats; slowest_shard falls
  /// back to the measured wall time when a shard reports no modelled
  /// time, so the signal is live for every backend.  Masked global ids
  /// are skipped as the shard heads advance and the overlay entries
  /// join the merge as one extra pre-sorted source.
  [[nodiscard]] index::QueryResult gather(std::span<const ShardCall> per_shard,
                                          int top_k,
                                          const DeltaOverlay& overlay) const;

  std::vector<Shard> shards_;
  std::string label_;
  RoutingPolicy routing_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  int max_top_k_ = 0;
  int max_replicas_ = 1;
  std::vector<int> shard_caps_;
  /// state_[shard][replica]; unique_ptr keeps the atomics stable.
  std::vector<std::vector<std::unique_ptr<ReplicaState>>> state_;
  /// Round-robin tickets, one counter per shard.
  mutable std::vector<std::atomic<std::uint64_t>> round_robin_;
};

/// Fluent construction of a ShardedIndex from a shared collection:
///
///   auto sharded = ShardedIndexBuilder()
///                      .matrix(csr)
///                      .shards(4)
///                      .policy(ShardPolicy::kNnzBalanced)
///                      .inner_backend("fpga-sim")
///                      .shard_backend(3, "cpu-heap")  // mixed shards
///                      .replicas(2)                   // failover pair
///                      .routing(RoutingPolicy::kLeastLoaded)
///                      .build();
///
/// Each shard's rows are sliced out of the matrix once and handed to
/// the registry (index::make_index) R times, so any registered backend
/// — built-in or third-party — can serve a shard, and the replicas of
/// a shard are interchangeable by construction.
class ShardedIndexBuilder {
 public:
  ShardedIndexBuilder& matrix(std::shared_ptr<const sparse::Csr> matrix);
  /// Shard count (default 4).  Validated against the row count at
  /// build() time by the planner.
  ShardedIndexBuilder& shards(int count);
  ShardedIndexBuilder& policy(ShardPolicy policy);
  /// Replicas per shard (default 1).  Validated >= 1 at build() time.
  ShardedIndexBuilder& replicas(int count);
  /// Replica routing policy (default kLeastLoaded).
  ShardedIndexBuilder& routing(RoutingPolicy policy);
  /// Inner backend for every shard without an override (default
  /// "cpu-heap").
  ShardedIndexBuilder& inner_backend(std::string name);
  /// Options handed to every inner factory (e.g. the FPGA design).
  ShardedIndexBuilder& inner_options(const index::IndexOptions& options);
  /// Overrides the backend of one shard — mixed-backend deployments
  /// (an exact straggler next to fpga-sim shards).  Throws at build()
  /// if `shard` is outside [0, shards) or the same shard is overridden
  /// twice (a silent last-wins would hide deployment config bugs).
  ShardedIndexBuilder& shard_backend(int shard, std::string name);
  /// describe().backend of the built index.  Defaults to
  /// "sharded-<inner>" for uniform shards, "sharded" for mixed ones.
  ShardedIndexBuilder& label(std::string label);

  /// Throws std::invalid_argument if no matrix was set, the shard
  /// count does not fit the matrix, the replica count is below 1, an
  /// override is out of range or duplicated, or a backend name is
  /// unknown to the registry.
  [[nodiscard]] std::shared_ptr<ShardedIndex> build() const;

  /// Warm restart: reconstructs a ShardedIndex from a deployment
  /// directory written by persist::save_deployment, replaying the
  /// persisted shard images instead of re-running the encoder.
  /// `options` supplies the non-geometric knobs of the inner factories
  /// (e.g. the gpu-f16 perf model) plus the replica count
  /// (options.replicas loads the same digest-verified images that many
  /// times — the manifest digests guarantee byte-identical replicas);
  /// the design, shard plan and backends come from the manifest.
  /// Throws std::runtime_error naming the offending file on
  /// missing/corrupt/mismatched images.
  [[nodiscard]] static std::shared_ptr<ShardedIndex> from_deployment(
      const std::filesystem::path& dir,
      const index::IndexOptions& options = {});

 private:
  std::shared_ptr<const sparse::Csr> matrix_;
  int shards_ = 4;
  ShardPolicy policy_ = ShardPolicy::kNnzBalanced;
  int replicas_ = 1;
  RoutingPolicy routing_ = RoutingPolicy::kLeastLoaded;
  std::string inner_backend_ = "cpu-heap";
  index::IndexOptions inner_options_;
  std::vector<std::pair<int, std::string>> overrides_;
  std::string label_;
};

}  // namespace topk::shard
