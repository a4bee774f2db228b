// Tests for the host-side parallel execution paths: multi-threaded
// single queries (threads across core streams) and batched queries
// (threads across queries, through the fpga-sim index's batch path).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/accelerator.hpp"
#include "index/backends.hpp"
#include "test_helpers.hpp"

namespace topk::core {
namespace {

class ParallelQueryTest : public ::testing::Test {
 protected:
  ParallelQueryTest()
      : matrix_(test::small_random_matrix(800, 256, 12.0, 97)),
        accelerator_(std::make_shared<const TopKAccelerator>(
            matrix_, DesignConfig::fixed(20, 8))),
        fpga_(accelerator_) {}

  sparse::Csr matrix_;
  std::shared_ptr<const TopKAccelerator> accelerator_;
  index::FpgaSimIndex fpga_;
};

TEST_F(ParallelQueryTest, ThreadCountDoesNotChangeResults) {
  util::Xoshiro256 rng(98);
  const auto x = sparse::generate_dense_vector(256, rng);
  const QueryResult reference = accelerator_->query(x, 32);
  for (const int threads : {0, 2, 3, 8, 16}) {
    QueryOptions options;
    options.threads = threads;
    const QueryResult result = accelerator_->query(x, 32, options);
    ASSERT_EQ(result.entries.size(), reference.entries.size())
        << threads << " threads";
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
      EXPECT_EQ(result.entries[i], reference.entries[i])
          << threads << " threads, rank " << i;
    }
    EXPECT_EQ(result.stats.total_packets, reference.stats.total_packets);
    EXPECT_EQ(result.stats.rows_emitted, reference.stats.rows_emitted);
  }
}

TEST_F(ParallelQueryTest, NegativeThreadsRejected) {
  util::Xoshiro256 rng(99);
  const auto x = sparse::generate_dense_vector(256, rng);
  QueryOptions options;
  options.threads = -1;
  EXPECT_THROW((void)accelerator_->query(x, 8, options), std::invalid_argument);
}

TEST_F(ParallelQueryTest, BatchMatchesIndividualQueries) {
  util::Xoshiro256 rng(100);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 7; ++q) {
    queries.push_back(sparse::generate_dense_vector(256, rng));
  }
  index::QueryOptions options;
  options.threads = 4;
  const auto batch = fpga_.query_batch(queries, 16, options);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const QueryResult individual = accelerator_->query(queries[q], 16);
    ASSERT_EQ(batch[q].entries.size(), individual.entries.size());
    for (std::size_t i = 0; i < individual.entries.size(); ++i) {
      EXPECT_EQ(batch[q].entries[i], individual.entries[i])
          << "query " << q << ", rank " << i;
    }
  }
}

TEST_F(ParallelQueryTest, EmptyBatchIsFine) {
  EXPECT_TRUE(fpga_.query_batch({}, 8).empty());
}

TEST_F(ParallelQueryTest, BatchValidatesUpFront) {
  util::Xoshiro256 rng(101);
  std::vector<std::vector<float>> queries{
      sparse::generate_dense_vector(256, rng)};
  EXPECT_THROW((void)fpga_.query_batch(queries, 0),
               std::invalid_argument);
  EXPECT_THROW((void)fpga_.query_batch(queries, 8 * 8 + 1),
               std::invalid_argument);
  queries.push_back(std::vector<float>(17, 0.0f));  // wrong dimension
  EXPECT_THROW((void)fpga_.query_batch(queries, 8),
               std::invalid_argument);
}

TEST_F(ParallelQueryTest, BatchSmallerThanThreadPool) {
  util::Xoshiro256 rng(102);
  const std::vector<std::vector<float>> queries{
      sparse::generate_dense_vector(256, rng)};
  index::QueryOptions options;
  options.threads = 16;  // more workers than queries
  const auto batch = fpga_.query_batch(queries, 8, options);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].entries.size(), 8u);
}

}  // namespace
}  // namespace topk::core
