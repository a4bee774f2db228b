// Block-Streaming CSR (BS-CSR) encoder/decoder — the paper's novel
// sparse matrix layout (section III-B, Figure 3).
//
// The matrix is serialised row-major into fixed-size packets (one HBM
// transaction each).  Within a packet:
//   * `new_row` (1 bit): 1 iff the packet's first entry starts a new
//     row, i.e. the previous packet's last row was complete;
//   * `ptr` (B entries, ptr_bits each): the cumulative non-zero count
//     at each row boundary inside the packet, in increasing order,
//     zero-padded (0 is unambiguous because every row boundary has a
//     positive cumulative count).  A boundary equal to B marks a row
//     ending exactly at the packet edge;
//   * `idx` (B entries): column indices;
//   * `val` (B entries): values, either raw unsigned fixed point or
//     float32 bits depending on the design.
//
// The format stores no row ids: consumers recover them by counting
// boundaries (the streaming property the hardware relies on).  Empty
// rows are materialised as a single placeholder entry (column 0,
// value 0) as described in the paper.  Packets shorter than B entries
// (the stream tail, or early closes when the encoder enforces the
// rows-per-packet limit) are padded with zero slots after the last
// recorded boundary; decoders recognise padding because a following
// packet carries new_row == 1 (or the stream ends).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/design.hpp"
#include "core/packet_layout.hpp"
#include "fixed/fixed_point.hpp"
#include "sparse/csr.hpp"

namespace topk::core {

/// Options controlling the encoder.
struct EncodeOptions {
  /// When positive, close a packet as soon as it contains this many
  /// row boundaries, guaranteeing that the streaming kernel's Top-K
  /// stage (which tracks at most r finished rows per packet) never
  /// drops a row.  Zero disables enforcement (the paper's hardware
  /// relies on realistic row densities instead).
  int max_rows_per_packet = 0;
};

/// Aggregate statistics from an encoding pass, used by the format
/// benchmarks (Figure 3 / Table III).
struct EncodeStats {
  std::uint64_t packets = 0;
  std::uint64_t padded_slots = 0;       ///< zero slots appended as padding
  std::uint64_t placeholder_entries = 0; ///< entries injected for empty rows
  std::uint64_t max_rows_in_packet = 0;  ///< max boundaries in any packet
};

/// An encoded BS-CSR stream for one matrix (or matrix partition).
class BsCsrMatrix {
 public:
  BsCsrMatrix() = default;

  [[nodiscard]] const PacketLayout& layout() const noexcept { return layout_; }
  [[nodiscard]] ValueKind value_kind() const noexcept { return value_kind_; }
  /// Fixed-point format of the stored values (meaningful for kFixed).
  [[nodiscard]] fixed::FixedFormat value_format() const noexcept {
    return fixed::FixedFormat{layout_.val_bits, 1};
  }

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  /// Non-zeros of the source matrix (excluding placeholders/padding).
  [[nodiscard]] std::uint64_t source_nnz() const noexcept { return source_nnz_; }
  /// Entries physically stored in the stream (source + placeholders).
  [[nodiscard]] std::uint64_t stored_entries() const noexcept {
    return stored_entries_;
  }

  [[nodiscard]] std::uint64_t num_packets() const noexcept { return num_packets_; }
  [[nodiscard]] std::uint64_t stream_bytes() const noexcept {
    return num_packets_ * static_cast<std::uint64_t>(layout_.bytes_per_packet());
  }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  [[nodiscard]] const EncodeStats& stats() const noexcept { return stats_; }

  /// Reassembles a matrix from previously serialised parts (see
  /// core/bscsr_io.hpp).  Throws std::invalid_argument when the word
  /// buffer size disagrees with the layout/packet count or the layout
  /// is inconsistent.
  [[nodiscard]] static BsCsrMatrix from_parts(
      const PacketLayout& layout, ValueKind kind, std::uint32_t rows,
      std::uint32_t cols, std::uint64_t source_nnz, std::uint64_t stored_entries,
      std::vector<std::uint64_t> words, const EncodeStats& stats);

  friend BsCsrMatrix encode_bscsr(const sparse::Csr&, const PacketLayout&,
                                  ValueKind, const EncodeOptions&);

 private:
  PacketLayout layout_;
  ValueKind value_kind_ = ValueKind::kFixed;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::uint64_t source_nnz_ = 0;
  std::uint64_t stored_entries_ = 0;
  std::uint64_t num_packets_ = 0;
  std::vector<std::uint64_t> words_;
  EncodeStats stats_;
};

/// Encodes `matrix` into a BS-CSR stream.  Values are quantised to the
/// layout's val_bits (unsigned Q1.(V-1)) for kFixed or bit-cast for
/// kFloat32 (which requires val_bits == 32).  Throws
/// std::invalid_argument on layout/matrix mismatches (cols exceeding
/// idx_bits range, float32 with narrow values).
[[nodiscard]] BsCsrMatrix encode_bscsr(const sparse::Csr& matrix,
                                       const PacketLayout& layout, ValueKind kind,
                                       const EncodeOptions& options = {});

/// One decoded packet, in struct-of-arrays form mirroring the wire
/// layout.  Spans point into the view's scratch storage.
struct PacketView {
  bool new_row = false;
  /// Row boundaries: strictly increasing cumulative counts in [1, B].
  std::span<const std::uint32_t> boundaries;
  std::span<const std::uint32_t> idx;       ///< B column indices
  std::span<const std::uint32_t> val_raw;   ///< B raw values
};

/// Sequential packet reader.  The BsCsrMatrix must outlive the cursor.
class PacketCursor {
 public:
  explicit PacketCursor(const BsCsrMatrix& matrix);

  [[nodiscard]] bool done() const noexcept { return next_packet_ >= total_; }

  /// Decodes the next packet.  The returned spans are valid until the
  /// next call.  Throws std::runtime_error on malformed streams
  /// (non-monotone boundaries) and std::out_of_range past the end.
  [[nodiscard]] PacketView next();

 private:
  const BsCsrMatrix* matrix_;
  std::uint64_t next_packet_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint32_t> boundaries_;
  std::vector<std::uint32_t> idx_;
  std::vector<std::uint32_t> val_;
};

/// Decodes a BS-CSR stream back to CSR.  Values come back quantised
/// (kFixed) or exact (kFloat32); empty source rows come back as the
/// single placeholder entry the encoder injected.  Used by round-trip
/// property tests and by format tooling.  Throws std::runtime_error on
/// malformed streams.
[[nodiscard]] sparse::Csr decode_bscsr(const BsCsrMatrix& matrix);

}  // namespace topk::core
