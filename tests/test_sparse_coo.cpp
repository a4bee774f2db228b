#include "sparse/coo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace topk::sparse {
namespace {

TEST(Coo, ConstructionValidatesShape) {
  EXPECT_THROW(Coo(0, 5), std::invalid_argument);
  EXPECT_THROW(Coo(5, 0), std::invalid_argument);
  const Coo matrix(3, 4);
  EXPECT_EQ(matrix.rows(), 3u);
  EXPECT_EQ(matrix.cols(), 4u);
  EXPECT_EQ(matrix.nnz(), 0u);
}

TEST(Coo, PushBackBoundsChecked) {
  Coo matrix(2, 2);
  matrix.push_back(1, 1, 3.0f);
  EXPECT_THROW(matrix.push_back(2, 0, 1.0f), std::out_of_range);
  EXPECT_THROW(matrix.push_back(0, 2, 1.0f), std::out_of_range);
  EXPECT_EQ(matrix.nnz(), 1u);
  EXPECT_EQ(matrix.entry(0), (Triplet{1, 1, 3.0f}));
}

TEST(Coo, SortRowMajorOrdersEntries) {
  Coo matrix(3, 3);
  matrix.push_back(2, 0, 1.0f);
  matrix.push_back(0, 1, 2.0f);
  matrix.push_back(0, 0, 3.0f);
  matrix.push_back(1, 2, 4.0f);
  EXPECT_FALSE(matrix.is_canonical());
  matrix.sort_row_major();
  EXPECT_TRUE(matrix.is_canonical());
  EXPECT_EQ(matrix.entry(0), (Triplet{0, 0, 3.0f}));
  EXPECT_EQ(matrix.entry(1), (Triplet{0, 1, 2.0f}));
  EXPECT_EQ(matrix.entry(2), (Triplet{1, 2, 4.0f}));
  EXPECT_EQ(matrix.entry(3), (Triplet{2, 0, 1.0f}));
}

TEST(Coo, SumDuplicatesMerges) {
  Coo matrix(2, 2);
  matrix.push_back(0, 0, 1.0f);
  matrix.push_back(0, 0, 2.0f);
  matrix.push_back(1, 1, 4.0f);
  matrix.push_back(0, 0, 3.0f);
  matrix.sum_duplicates();
  EXPECT_EQ(matrix.nnz(), 2u);
  EXPECT_EQ(matrix.entry(0), (Triplet{0, 0, 6.0f}));
  EXPECT_EQ(matrix.entry(1), (Triplet{1, 1, 4.0f}));
  EXPECT_TRUE(matrix.is_canonical());
}

TEST(Coo, SumDuplicatesOnEmptyIsNoop) {
  Coo matrix(2, 2);
  matrix.sum_duplicates();
  EXPECT_EQ(matrix.nnz(), 0u);
}

TEST(Coo, IsCanonicalDetectsDuplicates) {
  Coo matrix(2, 2);
  matrix.push_back(0, 1, 1.0f);
  matrix.push_back(0, 1, 1.0f);
  EXPECT_FALSE(matrix.is_canonical());
}

}  // namespace
}  // namespace topk::sparse
