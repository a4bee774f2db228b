#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "test_helpers.hpp"

namespace topk::sparse {
namespace {

Csr make_example() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  Coo coo(3, 3);
  coo.push_back(0, 0, 1.0f);
  coo.push_back(0, 2, 2.0f);
  coo.push_back(2, 0, 3.0f);
  coo.push_back(2, 1, 4.0f);
  return Csr::from_coo(std::move(coo));
}

TEST(Csr, FromCooBuildsRowMajorArrays) {
  const Csr matrix = make_example();
  EXPECT_EQ(matrix.rows(), 3u);
  EXPECT_EQ(matrix.cols(), 3u);
  EXPECT_EQ(matrix.nnz(), 4u);
  const std::vector<std::uint64_t> expected_ptr{0, 2, 2, 4};
  EXPECT_EQ(matrix.row_ptr(), expected_ptr);
  const std::vector<std::uint32_t> expected_cols{0, 2, 0, 1};
  EXPECT_EQ(matrix.col_idx(), expected_cols);
  const std::vector<float> expected_values{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_EQ(matrix.values(), expected_values);
  EXPECT_EQ(matrix.row_nnz(0), 2u);
  EXPECT_EQ(matrix.row_nnz(1), 0u);
  EXPECT_EQ(matrix.row_nnz(2), 2u);
}

TEST(Csr, FromCooHandlesUnsortedDuplicates) {
  Coo coo(2, 2);
  coo.push_back(1, 1, 1.0f);
  coo.push_back(0, 0, 2.0f);
  coo.push_back(1, 1, 3.0f);
  const Csr matrix = Csr::from_coo(std::move(coo));
  EXPECT_EQ(matrix.nnz(), 2u);
  EXPECT_FLOAT_EQ(matrix.row_values(1)[0], 4.0f);
}

TEST(Csr, FromPartsValidates) {
  EXPECT_THROW(
      Csr::from_parts(2, 2, {0, 1}, {0}, {1.0f}),  // row_ptr too short
      std::invalid_argument);
  EXPECT_THROW(
      Csr::from_parts(1, 1, {0, 2}, {0}, {1.0f}),  // back != nnz
      std::invalid_argument);
  EXPECT_THROW(
      Csr::from_parts(2, 2, {0, 2, 1}, {0, 1}, {1.0f, 1.0f}),  // not monotone
      std::invalid_argument);
  EXPECT_THROW(
      Csr::from_parts(1, 1, {0, 1}, {5}, {1.0f}),  // col out of range
      std::invalid_argument);
  EXPECT_THROW(Csr::from_parts(0, 1, {0}, {}, {}), std::invalid_argument);
  EXPECT_NO_THROW(Csr::from_parts(2, 2, {0, 1, 2}, {0, 1}, {1.0f, 2.0f}));
}

TEST(Csr, RowDotComputesDotProduct) {
  const Csr matrix = make_example();
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  EXPECT_DOUBLE_EQ(matrix.row_dot(0, x), 1.0 + 6.0);
  EXPECT_DOUBLE_EQ(matrix.row_dot(1, x), 0.0);
  EXPECT_DOUBLE_EQ(matrix.row_dot(2, x), 3.0 + 8.0);
  EXPECT_THROW((void)matrix.row_dot(0, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(Csr, SliceRowsPreservesContent) {
  const Csr matrix = make_example();
  const Csr slice = matrix.slice_rows(1, 3);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_EQ(slice.cols(), 3u);
  EXPECT_EQ(slice.nnz(), 2u);
  EXPECT_EQ(slice.row_nnz(0), 0u);
  EXPECT_EQ(slice.row_nnz(1), 2u);
  EXPECT_FLOAT_EQ(slice.row_values(1)[0], 3.0f);
  EXPECT_THROW((void)matrix.slice_rows(2, 1), std::out_of_range);
  EXPECT_THROW((void)matrix.slice_rows(0, 4), std::out_of_range);
}

TEST(Csr, SlicesConcatenateToWhole) {
  const Csr matrix = test::small_random_matrix(100, 64, 8.0, 5);
  const Csr first = matrix.slice_rows(0, 40);
  const Csr second = matrix.slice_rows(40, 100);
  EXPECT_EQ(first.nnz() + second.nnz(), matrix.nnz());
  for (std::uint32_t r = 0; r < 40; ++r) {
    EXPECT_EQ(first.row_nnz(r), matrix.row_nnz(r));
  }
  for (std::uint32_t r = 40; r < 100; ++r) {
    EXPECT_EQ(second.row_nnz(r - 40), matrix.row_nnz(r));
  }
}

TEST(Csr, L2NormalizeMakesUnitRows) {
  Csr matrix = make_example();
  matrix.l2_normalize_rows();
  for (std::uint32_t r : {0u, 2u}) {
    double norm_sq = 0.0;
    for (const float v : matrix.row_values(r)) {
      norm_sq += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(norm_sq, 1.0, 1e-6);
  }
  EXPECT_EQ(matrix.row_nnz(1), 0u);  // empty rows untouched
}

TEST(Csr, CsrBytesAccountsAllArrays) {
  const Csr matrix = make_example();
  EXPECT_EQ(matrix.csr_bytes(), 4u * 8 + 4u * 4 + 4u * 4);
}

}  // namespace
}  // namespace topk::sparse
