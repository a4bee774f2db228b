// Compressed Sparse Row matrix.
//
// CSR is the repo's canonical in-memory format: the CPU baseline runs
// directly on it, the BS-CSR encoder consumes it, and the exact
// reference SpMV used for accuracy ground truth lives here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"

namespace topk::sparse {

/// Immutable-after-construction CSR matrix with 64-bit row pointers
/// (paper-scale matrices exceed 2^32 non-zeros only marginally, but
/// the headroom is free) and 32-bit column indices.
class Csr {
 public:
  Csr() = default;

  /// Builds from COO.  The input is canonicalised (sorted row-major,
  /// duplicates summed) if needed.
  [[nodiscard]] static Csr from_coo(Coo coo);

  /// Builds directly from parts.  Throws std::invalid_argument if the
  /// arrays are inconsistent (wrong sizes, non-monotone row_ptr,
  /// column out of range).
  [[nodiscard]] static Csr from_parts(std::uint32_t rows, std::uint32_t cols,
                                      std::vector<std::uint64_t> row_ptr,
                                      std::vector<std::uint32_t> col_idx,
                                      std::vector<float> values);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return col_idx_.size(); }

  [[nodiscard]] const std::vector<std::uint64_t>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<float>& values() const noexcept { return val_; }

  /// Number of non-zeros in row `r`.
  [[nodiscard]] std::size_t row_nnz(std::uint32_t r) const {
    return static_cast<std::size_t>(row_ptr_.at(r + 1) - row_ptr_.at(r));
  }

  /// Column indices of row `r`.
  [[nodiscard]] std::span<const std::uint32_t> row_cols(std::uint32_t r) const;

  /// Values of row `r`.
  [[nodiscard]] std::span<const float> row_values(std::uint32_t r) const;

  /// Dot product of row `r` with dense vector `x` (double precision
  /// accumulation; the accuracy ground truth).  Throws
  /// std::invalid_argument if x.size() != cols().
  [[nodiscard]] double row_dot(std::uint32_t r, std::span<const float> x) const;

  /// Copies rows [row_begin, row_end) into a new matrix with the same
  /// column count.  Throws std::out_of_range on a bad range.
  [[nodiscard]] Csr slice_rows(std::uint32_t row_begin, std::uint32_t row_end) const;

  /// L2-normalises every non-empty row in place, making row dot
  /// products cosine similarities as in the paper's embedding setting.
  void l2_normalize_rows();

  /// Size in bytes of a standard CSR image (64-bit row_ptr + 32-bit
  /// col + 32-bit val), for the format-footprint comparisons.
  [[nodiscard]] std::size_t csr_bytes() const noexcept {
    return row_ptr_.size() * 8 + col_idx_.size() * 4 + val_.size() * 4;
  }

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::uint64_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<float> val_;
};

}  // namespace topk::sparse
