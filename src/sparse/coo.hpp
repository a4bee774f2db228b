// Coordinate-format sparse matrix.
//
// COO is the repo's interchange format: generators and file readers
// produce COO, the CSR builder consumes it.  It also serves as the
// naive streaming baseline the paper compares BS-CSR against in
// Figure 3 (one (row, col, val) triple per non-zero, 96 bits each).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace topk::sparse {

/// One non-zero entry.
struct Triplet {
  std::uint32_t row = 0;
  std::uint32_t col = 0;
  float value = 0.0f;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Coordinate-format sparse matrix (structure-of-arrays).
class Coo {
 public:
  Coo() = default;

  /// Creates an empty matrix with the given shape.  Throws
  /// std::invalid_argument for zero dimensions.
  Coo(std::uint32_t rows, std::uint32_t cols);

  void reserve(std::size_t nnz);

  /// Appends a non-zero.  Throws std::out_of_range if the coordinates
  /// exceed the matrix shape.
  void push_back(std::uint32_t row, std::uint32_t col, float value);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return row_.size(); }

  [[nodiscard]] const std::vector<std::uint32_t>& row_indices() const noexcept {
    return row_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col_indices() const noexcept {
    return col_;
  }
  [[nodiscard]] const std::vector<float>& values() const noexcept { return val_; }

  [[nodiscard]] Triplet entry(std::size_t i) const {
    return Triplet{row_.at(i), col_.at(i), val_.at(i)};
  }

  /// Sorts entries row-major (row, then column).  Stable with respect
  /// to duplicate coordinates.
  void sort_row_major();

  /// True if entries are sorted row-major with no duplicate (row, col)
  /// pairs.
  [[nodiscard]] bool is_canonical() const noexcept;

  /// Merges duplicate coordinates by summing their values (requires
  /// calling sort_row_major first or does it internally).
  void sum_duplicates();

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<std::uint32_t> row_;
  std::vector<std::uint32_t> col_;
  std::vector<float> val_;
};

}  // namespace topk::sparse
