// Streaming Top-K SpMV kernel over BS-CSR packets (paper Algorithm 1).
//
// Functional model of the 4-stage hardware pipeline of section IV-B:
//   1. per-slot products of packet values with the URAM-resident x;
//   2. per-row aggregation inside the packet (segments delimited by
//      the packet's ptr boundaries);
//   3. cross-packet row book-keeping: a carry accumulator holds the
//      running sum of the row that spans packet boundaries, and the
//      new_row bit resolves whether a packet continues it;
//   4. Top-k scratchpad update with argmin replacement, limited to at
//      most r finished rows per packet (rows beyond the budget are
//      dropped, exactly like the hardware's bounded update stage).
//
// Arithmetic follows the design: unsigned fixed point (exact integer
// products into a Q24.40 accumulator, comparisons on raws) or float32.
// Scores are surfaced as doubles — exact for every fixed-point raw
// that can arise from embedding-scale data.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bscsr.hpp"

namespace topk::core {

/// One Top-K result: a matrix row index and its (approximate) score.
struct TopKEntry {
  std::uint32_t index = 0;
  double value = 0.0;

  friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// The repo-wide deterministic Top-K ordering: descending value, with
/// ties broken by ascending row index.  Every backend, every per-core
/// merge and the sharded gather stage sort with this one definition,
/// so per-core, per-shard and whole-matrix results are bit-comparable
/// (regression: tests/test_shard.cpp engineered-ties suite).
[[nodiscard]] constexpr bool topk_entry_before(const TopKEntry& a,
                                               const TopKEntry& b) noexcept {
  if (a.value != b.value) {
    return a.value > b.value;
  }
  return a.index < b.index;
}

/// Function-object form of topk_entry_before for std algorithms.
struct TopKEntryOrder {
  [[nodiscard]] constexpr bool operator()(const TopKEntry& a,
                                          const TopKEntry& b) const noexcept {
    return topk_entry_before(a, b);
  }
};

/// Execution counters reported by the kernel.
struct KernelStats {
  std::uint64_t packets = 0;       ///< packets streamed
  std::uint64_t rows_emitted = 0;  ///< finished rows (incl. dropped)
  std::uint64_t rows_dropped = 0;  ///< rows lost to the r-limit
  /// Maximum rows that finished within a single packet (compare r).
  std::uint64_t max_rows_in_packet = 0;
};

/// Fixed-capacity Top-K scratchpad with hardware argmin-replacement
/// semantics: the first k candidates fill the store; afterwards a
/// candidate with value >= the current minimum replaces it (paper
/// Algorithm 1, step 4).  Comparisons use the score value; ties are
/// resolved in favour of the incumbent-replacing candidate, matching
/// the hardware's >= test.
class TopKScratchpad {
 public:
  /// Throws std::invalid_argument for non-positive k.
  explicit TopKScratchpad(int k);

  void insert(std::uint32_t index, double value);

  [[nodiscard]] int capacity() const noexcept { return k_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Extracts entries sorted by descending value (ties by ascending
  /// row index for determinism).
  [[nodiscard]] std::vector<TopKEntry> sorted_descending() const;

 private:
  void refresh_argmin() noexcept;

  int k_;
  std::size_t argmin_ = 0;
  std::vector<TopKEntry> entries_;
};

/// Result of running the kernel over one BS-CSR stream.
struct KernelResult {
  std::vector<TopKEntry> topk;  ///< descending by value
  KernelStats stats;
};

/// Runs the streaming kernel: the top `k` rows of `matrix` by dot
/// product with `x`, tracking at most `rows_per_packet` finished rows
/// per packet.  `x` must have matrix.cols() elements.  Throws
/// std::invalid_argument on size/parameter mismatches and
/// std::runtime_error on malformed streams.
[[nodiscard]] KernelResult run_topk_spmv(const BsCsrMatrix& matrix,
                                         std::span<const float> x, int k,
                                         int rows_per_packet);

/// A query vector that has already been through the URAM quantisation
/// stage.  `raw` holds the Q1.31 (kFixed) or S.31 (kSignedFixed) raws
/// and must be empty for kFloat32 streams, which read `x` directly.
/// Both spans are views: the caller owns the storage.
struct QuantizedQuery {
  std::span<const float> x;
  std::span<const std::uint32_t> raw;
};

/// Quantises `x` once for the given arithmetic — the per-query
/// amortisation hook: a multi-core accelerator quantises the vector a
/// single time and streams every core with the same raws, instead of
/// re-deriving them per core.  `raw_storage` receives the raws (left
/// empty for kFloat32) and must stay alive as long as the returned
/// views are used.
[[nodiscard]] QuantizedQuery quantize_query(
    std::span<const float> x, ValueKind kind,
    std::vector<std::uint32_t>& raw_storage);

/// Kernel entry point over a pre-quantised query.  Bit-identical to
/// the span-of-float overload (quantisation is element-wise and
/// deterministic); throws std::invalid_argument if the raw span's
/// presence or size does not match the stream's value kind.
[[nodiscard]] KernelResult run_topk_spmv(const BsCsrMatrix& matrix,
                                         const QuantizedQuery& query, int k,
                                         int rows_per_packet);

/// Quantises a dense query vector to the Q1.31 raws the URAM stage
/// stores (section IV-A).  Exposed so callers can amortise the
/// conversion across partitions.
[[nodiscard]] std::vector<std::uint32_t> quantize_vector(std::span<const float> x);

/// Signed variant for kSignedFixed designs: two's complement S.31
/// raws (one sign bit, 31 fractional bits).
[[nodiscard]] std::vector<std::uint32_t> quantize_vector_signed(
    std::span<const float> x);

}  // namespace topk::core
