#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topk::sparse {

Csr Csr::from_coo(Coo coo) {
  coo.sum_duplicates();

  Csr out;
  out.rows_ = coo.rows();
  out.cols_ = coo.cols();
  out.row_ptr_.assign(static_cast<std::size_t>(coo.rows()) + 1, 0);
  out.col_idx_.resize(coo.nnz());
  out.val_.resize(coo.nnz());

  const auto& rows = coo.row_indices();
  const auto& cols = coo.col_indices();
  const auto& vals = coo.values();
  for (const std::uint32_t r : rows) {
    ++out.row_ptr_[r + 1];
  }
  for (std::size_t r = 0; r < out.rows_; ++r) {
    out.row_ptr_[r + 1] += out.row_ptr_[r];
  }
  // Input is sorted, so a straight copy preserves per-row column order.
  for (std::size_t i = 0; i < coo.nnz(); ++i) {
    out.col_idx_[i] = cols[i];
    out.val_[i] = vals[i];
  }
  return out;
}

Csr Csr::from_parts(std::uint32_t rows, std::uint32_t cols,
                    std::vector<std::uint64_t> row_ptr,
                    std::vector<std::uint32_t> col_idx, std::vector<float> values) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Csr: matrix dimensions must be positive");
  }
  if (row_ptr.size() != static_cast<std::size_t>(rows) + 1) {
    throw std::invalid_argument("Csr: row_ptr must have rows+1 entries");
  }
  if (row_ptr.front() != 0 || row_ptr.back() != col_idx.size() ||
      col_idx.size() != values.size()) {
    throw std::invalid_argument("Csr: inconsistent array sizes");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) {
      throw std::invalid_argument("Csr: row_ptr must be non-decreasing");
    }
  }
  for (const std::uint32_t c : col_idx) {
    if (c >= cols) {
      throw std::invalid_argument("Csr: column index out of range");
    }
  }
  Csr out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.val_ = std::move(values);
  return out;
}

std::span<const std::uint32_t> Csr::row_cols(std::uint32_t r) const {
  const std::uint64_t begin = row_ptr_.at(r);
  const std::uint64_t end = row_ptr_.at(r + 1);
  return std::span<const std::uint32_t>(col_idx_).subspan(begin, end - begin);
}

std::span<const float> Csr::row_values(std::uint32_t r) const {
  const std::uint64_t begin = row_ptr_.at(r);
  const std::uint64_t end = row_ptr_.at(r + 1);
  return std::span<const float>(val_).subspan(begin, end - begin);
}

double Csr::row_dot(std::uint32_t r, std::span<const float> x) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("Csr::row_dot: vector size mismatch");
  }
  const auto cols = row_cols(r);
  const auto vals = row_values(r);
  double acc = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    acc += static_cast<double>(vals[i]) * static_cast<double>(x[cols[i]]);
  }
  return acc;
}

Csr Csr::slice_rows(std::uint32_t row_begin, std::uint32_t row_end) const {
  if (row_begin > row_end || row_end > rows_) {
    throw std::out_of_range("Csr::slice_rows: invalid row range");
  }
  Csr out;
  out.rows_ = row_end - row_begin;
  out.cols_ = cols_;
  out.row_ptr_.resize(static_cast<std::size_t>(out.rows_) + 1);
  const std::uint64_t base = row_ptr_[row_begin];
  for (std::uint32_t r = 0; r <= out.rows_; ++r) {
    out.row_ptr_[r] = row_ptr_[row_begin + r] - base;
  }
  const std::uint64_t nnz = row_ptr_[row_end] - base;
  out.col_idx_.assign(col_idx_.begin() + static_cast<std::ptrdiff_t>(base),
                      col_idx_.begin() + static_cast<std::ptrdiff_t>(base + nnz));
  out.val_.assign(val_.begin() + static_cast<std::ptrdiff_t>(base),
                  val_.begin() + static_cast<std::ptrdiff_t>(base + nnz));
  return out;
}

void Csr::l2_normalize_rows() {
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const std::uint64_t begin = row_ptr_[r];
    const std::uint64_t end = row_ptr_[r + 1];
    double sum_sq = 0.0;
    for (std::uint64_t i = begin; i < end; ++i) {
      sum_sq += static_cast<double>(val_[i]) * static_cast<double>(val_[i]);
    }
    if (sum_sq <= 0.0) {
      continue;
    }
    const auto inv_norm = static_cast<float>(1.0 / std::sqrt(sum_sq));
    for (std::uint64_t i = begin; i < end; ++i) {
      val_[i] *= inv_norm;
    }
  }
}

}  // namespace topk::sparse
