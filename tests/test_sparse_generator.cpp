#include "sparse/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace topk::sparse {
namespace {

TEST(GeneratorConfig, ValidateRejectsNonsense) {
  GeneratorConfig config;
  config.rows = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = {};
  config.mean_nnz_per_row = 0.5;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = {};
  config.cols = 16;
  config.mean_nnz_per_row = 17.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = {};
  config.distribution = RowDistribution::kGamma;
  config.gamma_shape = 0.5;
  EXPECT_THROW(validate(config), std::invalid_argument);
  EXPECT_NO_THROW(validate(GeneratorConfig{}));
}

TEST(Generator, Deterministic) {
  GeneratorConfig config;
  config.rows = 500;
  config.cols = 128;
  config.mean_nnz_per_row = 10.0;
  config.seed = 99;
  const Csr a = generate_matrix(config);
  const Csr b = generate_matrix(config);
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

TEST(Generator, RowsAreL2Normalized) {
  GeneratorConfig config;
  config.rows = 200;
  config.cols = 256;
  config.mean_nnz_per_row = 20.0;
  const Csr matrix = generate_matrix(config);
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    double norm_sq = 0.0;
    for (const float v : matrix.row_values(r)) {
      norm_sq += static_cast<double>(v) * v;
    }
    ASSERT_NEAR(norm_sq, 1.0, 1e-5) << "row " << r;
  }
}

TEST(Generator, ColumnsSortedUniqueInRange) {
  GeneratorConfig config;
  config.rows = 300;
  config.cols = 64;
  config.mean_nnz_per_row = 30.0;  // dense draws exercise Fisher-Yates
  const Csr matrix = generate_matrix(config);
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    const auto cols = matrix.row_cols(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      ASSERT_LT(cols[i], matrix.cols());
      if (i > 0) {
        ASSERT_LT(cols[i - 1], cols[i]) << "row " << r;
      }
    }
  }
}

TEST(Generator, ValuesNonNegative) {
  GeneratorConfig config;
  config.rows = 100;
  config.cols = 128;
  const Csr matrix = generate_matrix(config);
  for (const float v : matrix.values()) {
    ASSERT_GT(v, 0.0f);
  }
}

struct SweepParam {
  RowDistribution distribution;
  double mean_nnz;
  std::uint32_t cols;
};

class GeneratorSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GeneratorSweep, MeanRowDensityMatchesTarget) {
  const SweepParam param = GetParam();
  GeneratorConfig config;
  config.rows = 4000;
  config.cols = param.cols;
  config.mean_nnz_per_row = param.mean_nnz;
  config.distribution = param.distribution;
  config.seed = 1234;

  util::Xoshiro256 rng(config.seed);
  util::RunningStats stats;
  for (int i = 0; i < 4000; ++i) {
    stats.add(static_cast<double>(sample_row_nnz(config, rng)));
  }
  // 5% tolerance on the empirical mean (rounding biases the extremes
  // slightly).
  EXPECT_NEAR(stats.mean(), param.mean_nnz, param.mean_nnz * 0.05);
  EXPECT_GE(stats.min(), 1.0);
  EXPECT_LE(stats.max(), static_cast<double>(param.cols));
}

TEST_P(GeneratorSweep, MatrixNnzWithinExpectedBand) {
  const SweepParam param = GetParam();
  GeneratorConfig config;
  config.rows = 2000;
  config.cols = param.cols;
  config.mean_nnz_per_row = param.mean_nnz;
  config.distribution = param.distribution;
  const Csr matrix = generate_matrix(config);
  const double expected = config.mean_nnz_per_row * config.rows;
  EXPECT_NEAR(static_cast<double>(matrix.nnz()), expected, expected * 0.10);
}

INSTANTIATE_TEST_SUITE_P(
    TableIIIConfigs, GeneratorSweep,
    ::testing::Values(SweepParam{RowDistribution::kUniform, 20.0, 512},
                      SweepParam{RowDistribution::kUniform, 40.0, 1024},
                      SweepParam{RowDistribution::kGamma, 20.0, 512},
                      SweepParam{RowDistribution::kGamma, 40.0, 1024}));

TEST(GammaDistribution, IsRightSkewed) {
  GeneratorConfig config;
  config.cols = 1024;
  config.mean_nnz_per_row = 20.0;
  config.distribution = RowDistribution::kGamma;
  util::Xoshiro256 rng(77);
  // Skewness of Gamma(3) is 2/sqrt(3) ~ 1.15; the empirical third
  // moment must be clearly positive.
  util::RunningStats stats;
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    samples.push_back(static_cast<double>(sample_row_nnz(config, rng)));
    stats.add(samples.back());
  }
  double second_moment = 0.0;
  double third_moment = 0.0;
  for (const double s : samples) {
    second_moment += std::pow(s - stats.mean(), 2.0);
    third_moment += std::pow(s - stats.mean(), 3.0);
  }
  second_moment /= static_cast<double>(samples.size());
  third_moment /= static_cast<double>(samples.size());
  const double skewness = third_moment / std::pow(second_moment, 1.5);
  EXPECT_GT(skewness, 0.6);
}

TEST(DenseVector, UnitNormNonNegative) {
  util::Xoshiro256 rng(5);
  const std::vector<float> x = generate_dense_vector(512, rng);
  ASSERT_EQ(x.size(), 512u);
  double norm_sq = 0.0;
  for (const float v : x) {
    ASSERT_GE(v, 0.0f);
    norm_sq += static_cast<double>(v) * v;
  }
  EXPECT_NEAR(norm_sq, 1.0, 1e-6);
}

TEST(QueryNearRow, SourceRowRanksHighest) {
  GeneratorConfig config;
  config.rows = 500;
  config.cols = 256;
  config.mean_nnz_per_row = 16.0;
  const Csr matrix = generate_matrix(config);
  util::Xoshiro256 rng(9);
  const std::uint32_t source = 123;
  const std::vector<float> x =
      generate_query_near_row(matrix, source, 0.01, rng);

  double best = -1.0;
  std::uint32_t best_row = 0;
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    const double score = matrix.row_dot(r, x);
    if (score > best) {
      best = score;
      best_row = r;
    }
  }
  EXPECT_EQ(best_row, source);
  EXPECT_THROW((void)generate_query_near_row(matrix, 500, 0.01, rng),
               std::out_of_range);
}

}  // namespace
}  // namespace topk::sparse
