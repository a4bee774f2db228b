#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>

namespace topk::util {
namespace {

TEST(RunningStats, MeanMinMax) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, SingleSampleIsItsOwnMinMaxAndMean) {
  RunningStats stats;
  stats.add(3.5);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.5);
  EXPECT_DOUBLE_EQ(stats.min(), 3.5);
  EXPECT_DOUBLE_EQ(stats.max(), 3.5);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::array<double, 5> values{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.125), 15.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::array<double, 4> values{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
}

TEST(Quantile, RejectsBadArguments) {
  const std::array<double, 2> values{1.0, 2.0};
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(values, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(values, 1.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(values, std::nan("")), std::invalid_argument);
}

}  // namespace
}  // namespace topk::util
