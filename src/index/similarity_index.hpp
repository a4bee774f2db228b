// Unified multi-backend similarity-search API.
//
// The paper's central claim is comparative: the FPGA Top-K SpMV design
// against a multi-threaded CPU baseline and a GPU F16 model.  Each of
// those execution strategies used to live behind a different ad-hoc
// entry point (core::TopKAccelerator::query, the free functions in
// baselines::, the GPU model).  SimilarityIndex is the one abstraction
// they all implement — the backend-interchangeable kernel view of the
// parallel all-pairs-similarity literature (PAPERS.md) — so benches,
// examples and the serving tier select a backend at runtime and every
// comparison runs through the identical code path.
//
// Concrete adapters live in index/backends.hpp; runtime construction
// by name ("fpga-sim", "cpu-heap", ...) in index/registry.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/accelerator.hpp"
#include "core/topk_spmv.hpp"

namespace topk::sparse {
class Csr;
}  // namespace topk::sparse

namespace topk::index {

/// Backend-neutral execution options for one query.
struct QueryOptions {
  /// Maximum concurrency for one query (0 = hardware concurrency,
  /// 1 = sequential on the calling thread).  Backends without an
  /// intra-query parallel path ignore it.
  int threads = 1;
};

/// Analytic-model counters attached by GpuModelIndex.
struct GpuModelStats {
  double modelled_spmv_seconds = 0.0;  ///< SpMV kernel alone
  double modelled_topk_seconds = 0.0;  ///< SpMV + full radix sort
};

/// Scatter-gather counters attached by shard::ShardedIndex.  The
/// common QueryStats fields aggregate across shards (rows_scanned
/// sums; modelled_seconds is the max — the critical-path shard of a
/// parallel scatter); these record the gather itself.
struct ShardStats {
  int shards = 0;          ///< scatter width of this query
  /// Replication factor: the largest replica count of any shard (1 for
  /// an unreplicated index).
  int replicas = 1;
  /// Shard with the largest per-shard time — the modelled device time
  /// when the shard reports one (fpga-sim, gpu-f16), the measured wall
  /// time of its query_shard call otherwise (cpu-heap, exact-sort).
  /// Always set after a successful query: the scatter times every
  /// shard, so there is no "-1, no signal" state any more.
  int slowest_shard = -1;
  /// The slowest shard's time in seconds (modelled or measured, per
  /// the slowest_shard rule) — the load signal dynamic resharding
  /// rebalances on.
  double slowest_seconds = 0.0;
  /// Candidate entries the k-way merge consumed before the final cut.
  std::uint64_t gathered_candidates = 0;
  /// (query, shard) cells that failed on their routed replica and were
  /// retried on another during this query — 0 on an all-healthy set.
  std::uint64_t failovers = 0;
};

/// Cumulative health/performance counters of one replica of one shard,
/// snapshot via shard::ShardedIndex::replica_stats().  The routing
/// policies read the live counters behind this view: kLeastLoaded
/// routes to the replica with the fewest in-flight calls (ties broken
/// by the lower EWMA), and failover skips replicas marked unhealthy by
/// their last call.
struct ReplicaStats {
  std::uint64_t queries = 0;   ///< calls served successfully
  std::uint64_t failures = 0;  ///< calls that threw (absorbed by failover)
  int inflight = 0;            ///< calls executing right now
  /// Exponentially weighted moving average of observed per-call wall
  /// time (seconds); 0 until the replica has served a call.
  double ewma_seconds = 0.0;
  /// False while the replica's most recent call failed; a success
  /// flips it back (transient faults recover).
  bool healthy = true;
  /// what() of the most recent failure, truncated by the shard tier to
  /// a fixed cap so a failing replica can't grow memory unbounded.
  std::string last_error;
  /// Steady-clock seconds since process start (telemetry::now_seconds)
  /// of the most recent failure; -1 when the replica has never failed.
  double last_error_seconds = -1.0;
};

/// Kernel counters attached by CpuSimdIndex (the vectorized two-phase
/// screen/rescore backend, see simd/topk_simd.hpp).
struct SimdStats {
  /// ISA level the screening scan ran at ("scalar", "avx2", "avx512").
  std::string isa;
  /// Rows whose screen interval reached the running k-th best and were
  /// rescored with the exact double kernel (0 for the f16 screen-only
  /// mode).
  std::uint64_t rows_rescored = 0;
};

/// Counters attached by shard::MutableShardedIndex: the sealed tier's
/// scatter-gather stats plus what the delta tier contributed to this
/// query.
struct MutableTierStats {
  ShardStats shard;  ///< the sealed base's gather, as in ShardStats
  /// Sealed generation that served the query (0 = cold build, +1 per
  /// compaction swap).
  std::uint64_t generation = 0;
  /// Live delta rows scored by the brute-force delta scan.
  std::uint64_t delta_scanned = 0;
  /// Delta entries that entered the k-way merge as candidates.
  std::uint64_t delta_candidates = 0;
  /// Base ids hidden from the merge (tombstoned, inherited from a past
  /// compaction, or superseded by a delta version).
  std::uint64_t masked_rows = 0;
};

/// Per-query counters.  The common fields are meaningful for every
/// backend; device-specific counters ride along as a typed extension
/// (ExecutionStats for the FPGA simulator, GpuModelStats for the GPU
/// model, ShardStats for the sharded tier, MutableTierStats for the
/// mutable tier) instead of being flattened into one union of field
/// names.
struct QueryStats {
  /// Candidate rows the backend examined (all backends scan the full
  /// collection; an ANN backend would report fewer).
  std::uint64_t rows_scanned = 0;
  /// Modelled on-device time for modelled backends (FPGA, GPU);
  /// zero for backends that only exist as measured host code.
  double modelled_seconds = 0.0;
  std::variant<std::monostate, core::ExecutionStats, GpuModelStats, ShardStats,
               MutableTierStats, SimdStats>
      backend;
};

/// Result of one query through any backend.
struct QueryResult {
  std::vector<core::TopKEntry> entries;  ///< descending by value
  QueryStats stats;
};

/// The FPGA extension payload, if this result came from FpgaSimIndex.
[[nodiscard]] inline const core::ExecutionStats* fpga_stats(
    const QueryResult& result) noexcept {
  return std::get_if<core::ExecutionStats>(&result.stats.backend);
}

/// The GPU-model extension payload, if this result came from
/// GpuModelIndex.
[[nodiscard]] inline const GpuModelStats* gpu_stats(
    const QueryResult& result) noexcept {
  return std::get_if<GpuModelStats>(&result.stats.backend);
}

/// The SIMD-kernel extension payload, if this result came from
/// CpuSimdIndex.
[[nodiscard]] inline const SimdStats* simd_stats(
    const QueryResult& result) noexcept {
  return std::get_if<SimdStats>(&result.stats.backend);
}

/// The mutable-tier extension payload, if this result came from
/// shard::MutableShardedIndex.
[[nodiscard]] inline const MutableTierStats* mutable_stats(
    const QueryResult& result) noexcept {
  return std::get_if<MutableTierStats>(&result.stats.backend);
}

/// The scatter-gather extension payload, if this result came from
/// shard::ShardedIndex — or the sealed tier's gather stats when it
/// came from the mutable tier, so routing/failover dashboards read one
/// accessor for both.
[[nodiscard]] inline const ShardStats* shard_stats(
    const QueryResult& result) noexcept {
  if (const auto* mutable_tier = mutable_stats(result)) {
    return &mutable_tier->shard;
  }
  return std::get_if<ShardStats>(&result.stats.backend);
}

/// Capability and footprint metadata reported by describe().
struct IndexDescription {
  std::string backend;  ///< registry key, e.g. "fpga-sim"
  std::string detail;   ///< human-readable configuration
  /// True when scores are exact (double accumulation) — the backend
  /// can serve as ground truth for the approximate ones.
  bool exact = false;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  /// Largest accepted top_k (0 = bounded only by rows); the FPGA
  /// merge can surface at most k * cores candidates.
  int max_top_k = 0;
  /// Index image footprint (device streams or the CSR arrays).
  std::uint64_t memory_bytes = 0;
};

/// Abstract Top-K similarity index over a fixed collection.
///
/// Implementations are immutable after construction and
/// thread-compatible: concurrent query() calls on one instance are
/// safe.  All adapters validate through validate_query(), so shape and
/// top_k errors are uniform across backends.
class SimilarityIndex {
 public:
  virtual ~SimilarityIndex() = default;

  /// Returns the (approximate or exact, see describe().exact) top
  /// `top_k` rows by dot product with `x`.  Throws
  /// std::invalid_argument on shape mismatch or top_k outside
  /// (0, max_top_k()].
  [[nodiscard]] virtual QueryResult query(
      std::span<const float> x, int top_k,
      const QueryOptions& options = {}) const = 0;

  /// Runs a batch of queries (each a cols()-sized vector), spreading
  /// whole queries across options.threads workers on the shared
  /// persistent pool with dynamic claiming.  Results align with the
  /// input order.  The default implementation validates up front and
  /// fans out over query(); backends with a cheaper batch path may
  /// override.
  [[nodiscard]] virtual std::vector<QueryResult> query_batch(
      const std::vector<std::vector<float>>& queries, int top_k,
      const QueryOptions& options = {}) const;

  [[nodiscard]] virtual std::uint32_t rows() const noexcept = 0;
  [[nodiscard]] virtual std::uint32_t cols() const noexcept = 0;

  /// Capability/stats metadata — one call for everything a serving
  /// tier or bench needs to route, display, and sanity-check.
  [[nodiscard]] virtual IndexDescription describe() const = 0;

  /// Largest accepted top_k (0 = bounded only by rows).
  [[nodiscard]] virtual int max_top_k() const noexcept { return 0; }

  /// The host-resident CSR matrix this index retains, or nullptr for
  /// backends that only hold device/model images.  One virtual instead
  /// of a dynamic_cast chain per concrete type: the persistence tier
  /// saves any index whose primary returns non-null, and the mutable
  /// tier's compaction reads it to rebuild the base matrix.
  [[nodiscard]] virtual const sparse::Csr* host_csr() const noexcept {
    return nullptr;
  }

  /// Shared argument validation: x.size() == cols(), top_k in
  /// (0, max_top_k()] (or just positive when unbounded).  Throws
  /// std::invalid_argument with a backend-tagged message.
  void validate_query(std::span<const float> x, int top_k) const;

  /// Batch variant: every vector checked against cols(), top_k once.
  void validate_batch(const std::vector<std::vector<float>>& queries,
                      int top_k) const;

 protected:
  void check_vector(std::span<const float> x) const;
  void check_top_k(int top_k) const;
};

}  // namespace topk::index
