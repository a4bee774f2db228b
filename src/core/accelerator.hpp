// Top-level accelerator API: the multi-core approximate Top-K SpMV
// device of section IV, as a functional simulator.
//
// Construction partitions the matrix across the configured cores,
// encodes each partition to BS-CSR, and precomputes the packet layout
// from the design's value width and the matrix's column count.
// query() streams every core's packets through the kernel and merges
// the per-core top-k lists — exactly the host-visible behaviour of the
// FPGA design.  Timing is *not* computed here (there is no FPGA): the
// hbmsim library turns the per-core packet counts reported in
// ExecutionStats into modelled wall-clock times.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bscsr.hpp"
#include "core/design.hpp"
#include "core/partitioner.hpp"
#include "core/topk_spmv.hpp"
#include "sparse/csr.hpp"

namespace topk::core {

/// Per-query execution counters across all cores.
struct ExecutionStats {
  std::uint64_t total_packets = 0;
  /// Packets streamed by the busiest core — the quantity that bounds
  /// the (fully parallel) device latency.
  std::uint64_t max_core_packets = 0;
  std::uint64_t rows_dropped = 0;
  std::uint64_t rows_emitted = 0;
  /// Most rows finished within a single packet on any core — compare
  /// against the design's r budget (rows_per_packet) to see how close
  /// the stream comes to dropping rows.
  std::uint64_t max_rows_in_packet = 0;
};

/// Result of one query.
struct QueryResult {
  std::vector<TopKEntry> entries;  ///< descending by value, size <= K
  ExecutionStats stats;
};

/// Host-side execution options.  On the FPGA the c cores run
/// concurrently by construction; the software simulator reproduces
/// that on the shared persistent pool (util::shared_pool()) with
/// dynamic work claiming over the per-core streams.
struct QueryOptions {
  /// Maximum concurrency for one query's core streams (0 = hardware
  /// concurrency, 1 = sequential on the calling thread).
  int threads = 1;
};

/// The accelerator instance.  Thread-compatible: concurrent query()
/// calls on the same instance are safe (all state is read-only after
/// construction).
class TopKAccelerator {
 public:
  /// Builds the device image.  Throws std::invalid_argument if the
  /// configuration is invalid, the matrix is empty, or it has fewer
  /// rows than cores.
  TopKAccelerator(const sparse::Csr& matrix, const DesignConfig& config);

  /// Reassembles an accelerator from previously persisted per-core
  /// streams without re-running the encoder — the warm-restart path of
  /// persist::load_deployment.  The partitions must be contiguous from
  /// row 0 with one stream each, every stream's shape/kind/layout must
  /// agree with its partition and the design, and the stream count
  /// must equal the design's core count.  Throws std::invalid_argument
  /// on any inconsistency.
  [[nodiscard]] static TopKAccelerator from_parts(
      const DesignConfig& config, std::vector<Partition> partitions,
      std::vector<BsCsrMatrix> streams);

  /// Returns the approximate top `top_k` rows by dot product with `x`.
  /// Requires top_k <= k * cores (the merge can surface at most k
  /// candidates per core — the paper's k*c >= K constraint) and
  /// x.size() == cols; throws std::invalid_argument otherwise.
  [[nodiscard]] QueryResult query(std::span<const float> x, int top_k,
                                  const QueryOptions& options = {}) const;

  /// Validates one query without running anything: `x` must have
  /// cols() elements and top_k must lie in (0, k * cores].  Throws
  /// std::invalid_argument otherwise; query() runs it first.  The
  /// index adapter (index::FpgaSimIndex) validates through
  /// SimilarityIndex::validate_query instead, against the same bound
  /// (its max_top_k() is k * cores), and batches through the inherited
  /// SimilarityIndex::query_batch.
  void validate_query(std::span<const float> x, int top_k) const;

  [[nodiscard]] const DesignConfig& config() const noexcept { return config_; }
  [[nodiscard]] const PacketLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] const std::vector<Partition>& partitions() const noexcept {
    return partitions_;
  }
  [[nodiscard]] const std::vector<BsCsrMatrix>& core_streams() const noexcept {
    return streams_;
  }

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }

  /// Total device-memory footprint of all core streams, in bytes.
  [[nodiscard]] std::uint64_t stream_bytes() const noexcept;
  /// Packets held by the busiest core (bounds query latency).
  [[nodiscard]] std::uint64_t max_core_packets() const noexcept;

 private:
  TopKAccelerator() = default;  // for from_parts

  DesignConfig config_;
  PacketLayout layout_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<Partition> partitions_;
  std::vector<BsCsrMatrix> streams_;
};

}  // namespace topk::core
