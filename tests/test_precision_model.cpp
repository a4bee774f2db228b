#include "core/precision_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace topk::core {
namespace {

TEST(PrecisionModel, PerfectWhenKBelowPartitionBudget) {
  // With K <= k, no partition can ever hold more than k of the top-K.
  EXPECT_DOUBLE_EQ(expected_precision_closed(1'000'000, 16, 8, 8), 1.0);
  EXPECT_NEAR(expected_precision_closed(1'000'000, 32, 8, 16), 1.0, 1e-6);
}

TEST(PrecisionModel, SinglePartitionCapsAtKOverK) {
  // One partition retrieves exactly k of the K values.
  EXPECT_NEAR(expected_precision_closed(1000, 1, 8, 100), 0.08, 1e-9);
  EXPECT_NEAR(expected_precision_closed(1000, 1, 8, 8), 1.0, 1e-9);
}

TEST(PrecisionModel, MonotoneInPartitions) {
  double previous = 0.0;
  for (const int partitions : {2, 4, 8, 16, 32}) {
    const double p = expected_precision_closed(1'000'000, partitions, 8, 100);
    EXPECT_GE(p, previous);
    previous = p;
  }
  EXPECT_GT(previous, 0.99);  // 32 partitions are nearly exact
}

TEST(PrecisionModel, MonotoneInK) {
  double previous = 0.0;
  for (const int k : {1, 2, 4, 8, 16}) {
    const double p = expected_precision_closed(1'000'000, 16, k, 100);
    EXPECT_GT(p, previous);
    previous = p;
  }
}

TEST(PrecisionModel, DecreasesWithTopK) {
  double previous = 1.1;
  for (const int top_k : {8, 16, 32, 50, 75, 100, 200}) {
    const double p = expected_precision_closed(1'000'000, 16, 8, top_k);
    EXPECT_LE(p, previous + 1e-12);
    previous = p;
  }
}

struct TableICell {
  std::uint64_t rows;
  int partitions;
  int top_k;
  double paper_value;
};

class TableIPrecision : public ::testing::TestWithParam<TableICell> {};

TEST_P(TableIPrecision, ClosedFormMatchesPaper) {
  const TableICell cell = GetParam();
  const double p =
      expected_precision_closed(cell.rows, cell.partitions, 8, cell.top_k);
  EXPECT_NEAR(p, cell.paper_value, 0.01)
      << "N=" << cell.rows << " c=" << cell.partitions << " K=" << cell.top_k;
}

// Table I of the paper (k = 8); the sub-0.001 cells are listed as 1 /
// 0.999 there.
INSTANTIATE_TEST_SUITE_P(
    PaperValues, TableIPrecision,
    ::testing::Values(TableICell{1'000'000, 16, 8, 1.0},
                      TableICell{1'000'000, 16, 16, 1.0},
                      TableICell{1'000'000, 16, 32, 0.999},
                      TableICell{1'000'000, 16, 50, 0.998},
                      TableICell{1'000'000, 16, 75, 0.983},
                      TableICell{1'000'000, 16, 100, 0.942},
                      TableICell{1'000'000, 28, 100, 0.996},
                      TableICell{1'000'000, 32, 50, 0.999},
                      TableICell{1'000'000, 32, 100, 0.997},
                      TableICell{10'000'000, 16, 75, 0.986},
                      TableICell{10'000'000, 16, 100, 0.947},
                      TableICell{10'000'000, 28, 100, 0.995},
                      TableICell{10'000'000, 32, 100, 0.998}));

TEST(PrecisionModel, MonteCarloAgreesWithClosedForm) {
  util::Xoshiro256 rng(2024);
  for (const int partitions : {8, 16, 32}) {
    for (const int top_k : {16, 50, 100}) {
      const double closed =
          expected_precision_closed(1'000'000, partitions, 8, top_k);
      const double mc = expected_precision_mc(1'000'000, partitions, 8, top_k,
                                              20'000, rng);
      EXPECT_NEAR(mc, closed, 0.005)
          << "c=" << partitions << " K=" << top_k;
    }
  }
}

TEST(PrecisionModel, MonteCarloHandlesUnevenPartitions) {
  // 1e6 rows over 28 partitions: 35714/35715-row partitions.
  util::Xoshiro256 rng(11);
  const double closed = expected_precision_closed(1'000'000, 28, 8, 100);
  const double mc = expected_precision_mc(1'000'000, 28, 8, 100, 20'000, rng);
  EXPECT_NEAR(mc, closed, 0.005);
}

TEST(PrecisionModel, ValidatesArguments) {
  util::Xoshiro256 rng(1);
  EXPECT_THROW((void)expected_precision_closed(0, 1, 8, 8),
               std::invalid_argument);
  EXPECT_THROW((void)expected_precision_closed(100, 0, 8, 8),
               std::invalid_argument);
  EXPECT_THROW((void)expected_precision_closed(100, 101, 8, 8),
               std::invalid_argument);
  EXPECT_THROW((void)expected_precision_closed(100, 4, 0, 8),
               std::invalid_argument);
  EXPECT_THROW((void)expected_precision_closed(100, 4, 8, 0),
               std::invalid_argument);
  EXPECT_THROW((void)expected_precision_mc(100, 4, 8, 8, 0, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace topk::core
