// Tests for the unified multi-backend index subsystem: the backend
// registry, the shared validation path, describe()
// metadata, and — the comparative heart of the paper — cross-backend
// agreement: the exact backends must be bit-identical, and the
// approximate ones must clear a recall floor against them.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "eval/ranking.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "test_helpers.hpp"

namespace topk::index {
namespace {

std::shared_ptr<const sparse::Csr> shared_matrix(std::uint32_t rows,
                                                 std::uint32_t cols,
                                                 double mean_nnz,
                                                 std::uint64_t seed) {
  return std::make_shared<const sparse::Csr>(
      test::small_random_matrix(rows, cols, mean_nnz, seed));
}

std::vector<std::uint32_t> indices_of(const QueryResult& result) {
  std::vector<std::uint32_t> indices;
  indices.reserve(result.entries.size());
  for (const core::TopKEntry& entry : result.entries) {
    indices.push_back(entry.index);
  }
  return indices;
}

// ------------------------------------------------------------------ Registry

TEST(IndexRegistryTest, RegisteredBackendsContainsAllBuiltins) {
  const auto names = registered_backends();
  for (const char* expected : {"cpu-heap", "exact-sort", "fpga-sim", "gpu-f16"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_TRUE(has_backend(expected)) << expected;
  }
}

TEST(IndexRegistryTest, MakeIndexConstructsEveryRegisteredBackend) {
  const auto matrix = shared_matrix(300, 128, 8.0, 11);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  for (const std::string& name : registered_backends()) {
    const auto index = make_index(name, matrix, options);
    ASSERT_NE(index, nullptr) << name;
    EXPECT_EQ(index->describe().backend, name);
    EXPECT_EQ(index->rows(), matrix->rows()) << name;
    EXPECT_EQ(index->cols(), matrix->cols()) << name;
    EXPECT_GT(index->describe().memory_bytes, 0u) << name;
  }
}

TEST(IndexRegistryTest, UnknownBackendThrowsWithRegisteredNames) {
  const auto matrix = shared_matrix(100, 64, 6.0, 12);
  try {
    (void)make_index("annoy", matrix);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("annoy"), std::string::npos);
    EXPECT_NE(message.find("fpga-sim"), std::string::npos);
  }
}

TEST(IndexRegistryTest, RejectsDuplicateAndInvalidRegistrations) {
  EXPECT_THROW(register_backend("cpu-heap",
                                [](std::shared_ptr<const sparse::Csr> m,
                                   const IndexOptions&)
                                    -> std::shared_ptr<SimilarityIndex> {
                                  return std::make_shared<CpuHeapIndex>(m);
                                }),
               std::invalid_argument);
  EXPECT_THROW(register_backend("", nullptr), std::invalid_argument);
  EXPECT_THROW(register_backend("null-factory", nullptr),
               std::invalid_argument);
}

TEST(IndexRegistryTest, CustomBackendsPlugIntoTheRegistry) {
  // A third-party backend (here: just the CPU heap under a new name)
  // registers once and is immediately constructible by name.
  register_backend("custom-cpu-alias",
                   [](std::shared_ptr<const sparse::Csr> m, const IndexOptions&)
                       -> std::shared_ptr<SimilarityIndex> {
                     return std::make_shared<CpuHeapIndex>(std::move(m));
                   });
  EXPECT_TRUE(has_backend("custom-cpu-alias"));
  const auto matrix = shared_matrix(200, 64, 6.0, 13);
  const auto index = make_index("custom-cpu-alias", matrix);
  EXPECT_EQ(index->query(std::vector<float>(64, 0.5f), 5).entries.size(), 5u);
}

TEST(IndexRegistryTest, MakeIndexRejectsNullMatrix) {
  EXPECT_THROW((void)make_index("cpu-heap", nullptr), std::invalid_argument);
}

TEST(IndexRegistryTest, MakeIndexForwardsTheDesign) {
  const auto matrix = shared_matrix(300, 128, 8.0, 14);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(25, 4);
  const auto description = make_index("fpga-sim", matrix, options)->describe();
  EXPECT_EQ(description.backend, "fpga-sim");
  EXPECT_NE(description.detail.find("25b"), std::string::npos)
      << description.detail;
}

// -------------------------------------------------------------- describe()

TEST(IndexDescribeTest, CapabilityMetadataPerBackend) {
  const auto matrix = shared_matrix(400, 128, 8.0, 15);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);

  const auto fpga = make_index("fpga-sim", matrix, options);
  EXPECT_FALSE(fpga->describe().exact);
  EXPECT_EQ(fpga->describe().max_top_k, 8 * 4);  // k * cores
  EXPECT_EQ(fpga->max_top_k(), 8 * 4);

  const auto cpu = make_index("cpu-heap", matrix);
  EXPECT_TRUE(cpu->describe().exact);
  EXPECT_EQ(cpu->describe().max_top_k, 0);  // bounded only by rows

  const auto exact = make_index("exact-sort", matrix);
  EXPECT_TRUE(exact->describe().exact);

  const auto gpu = make_index("gpu-f16", matrix);
  EXPECT_FALSE(gpu->describe().exact);
  EXPECT_LT(gpu->describe().memory_bytes, cpu->describe().memory_bytes)
      << "F16 image must be smaller than the F32 CSR";
}

// -------------------------------------------------------------- validation

TEST(IndexValidationTest, UniformErrorsAcrossBackends) {
  const auto matrix = shared_matrix(300, 128, 8.0, 16);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  for (const std::string& name : registered_backends()) {
    const auto index = make_index(name, matrix, options);
    EXPECT_THROW((void)index->query(std::vector<float>(5, 0.0f), 10),
                 std::invalid_argument)
        << name;
    EXPECT_THROW((void)index->query(std::vector<float>(128, 0.0f), 0),
                 std::invalid_argument)
        << name;
    EXPECT_THROW((void)index->query_batch({std::vector<float>(5, 0.0f)}, 10),
                 std::invalid_argument)
        << name;
    // An empty batch still rejects an invalid top_k.
    EXPECT_THROW((void)index->query_batch({}, -1), std::invalid_argument)
        << name;
  }
  // The FPGA merge bound applies on top of the shared checks.
  const auto fpga = make_index("fpga-sim", matrix, options);
  EXPECT_THROW((void)fpga->query(std::vector<float>(128, 0.0f), 8 * 4 + 1),
               std::invalid_argument);
}

TEST(IndexValidationTest, FpgaSimSingleAndBatchMessagesCannotDrift) {
  // fpga-sim's query and its inherited query_batch funnel through one
  // SimilarityIndex::validate_query, so the messages are identical.
  const auto matrix = shared_matrix(300, 128, 8.0, 17);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  const auto fpga = make_index("fpga-sim", matrix, options);
  const auto message_of = [](const auto& call) {
    try {
      call();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  const std::vector<float> wrong_size(5, 0.0f);
  const std::string single_message =
      message_of([&] { (void)fpga->query(wrong_size, 10); });
  ASSERT_FALSE(single_message.empty());
  EXPECT_EQ(single_message,
            message_of([&] { (void)fpga->query_batch({wrong_size}, 10); }));

  const std::vector<float> x(128, 0.0f);
  const std::string single_topk =
      message_of([&] { (void)fpga->query(x, 8 * 4 + 1); });
  ASSERT_FALSE(single_topk.empty());
  EXPECT_EQ(single_topk,
            message_of([&] { (void)fpga->query_batch({x}, 8 * 4 + 1); }));
}

// -------------------------------------------------- stats extension payloads

TEST(IndexStatsTest, TypedExtensionsMatchTheBackend) {
  const auto matrix = shared_matrix(400, 128, 8.0, 18);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  util::Xoshiro256 rng(18);
  const auto x = sparse::generate_dense_vector(128, rng);

  const auto fpga_result = make_index("fpga-sim", matrix, options)->query(x, 10);
  ASSERT_NE(fpga_stats(fpga_result), nullptr);
  EXPECT_EQ(gpu_stats(fpga_result), nullptr);
  EXPECT_GT(fpga_stats(fpga_result)->total_packets, 0u);
  EXPECT_GT(fpga_result.stats.modelled_seconds, 0.0);
  EXPECT_EQ(fpga_result.stats.rows_scanned, matrix->rows());

  const auto gpu_result = make_index("gpu-f16", matrix)->query(x, 10);
  ASSERT_NE(gpu_stats(gpu_result), nullptr);
  EXPECT_EQ(fpga_stats(gpu_result), nullptr);
  EXPECT_GT(gpu_stats(gpu_result)->modelled_spmv_seconds, 0.0);
  EXPECT_GE(gpu_stats(gpu_result)->modelled_topk_seconds,
            gpu_stats(gpu_result)->modelled_spmv_seconds);

  const auto cpu_result = make_index("cpu-heap", matrix)->query(x, 10);
  EXPECT_EQ(fpga_stats(cpu_result), nullptr);
  EXPECT_EQ(gpu_stats(cpu_result), nullptr);
  EXPECT_EQ(cpu_result.stats.modelled_seconds, 0.0);
  EXPECT_EQ(cpu_result.stats.rows_scanned, matrix->rows());
}

// ------------------------------------------------- cross-backend agreement

struct AgreementParam {
  std::uint32_t rows;
  std::uint32_t cols;
  double mean_nnz;
  std::uint64_t seed;
  int top_k;
};

class CrossBackendAgreementTest
    : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(CrossBackendAgreementTest, ExactBackendsAreBitIdentical) {
  const AgreementParam param = GetParam();
  const auto matrix =
      shared_matrix(param.rows, param.cols, param.mean_nnz, param.seed);
  const auto cpu = make_index("cpu-heap", matrix);
  const auto exact = make_index("exact-sort", matrix);
  const auto simd = make_index("cpu-simd", matrix);

  util::Xoshiro256 rng(param.seed + 1);
  for (int q = 0; q < 4; ++q) {
    const auto x = sparse::generate_dense_vector(param.cols, rng);
    const auto cpu_result = cpu->query(x, param.top_k);
    const auto exact_result = exact->query(x, param.top_k);
    ASSERT_EQ(cpu_result.entries.size(), exact_result.entries.size());
    for (std::size_t i = 0; i < cpu_result.entries.size(); ++i) {
      EXPECT_EQ(cpu_result.entries[i], exact_result.entries[i])
          << "query " << q << ", rank " << i;
    }
    // The vectorized screen + rescore path is exact by construction.
    EXPECT_EQ(simd->query(x, param.top_k).entries, cpu_result.entries)
        << "query " << q;
    // The multi-threaded scan must agree with itself at any fan-out.
    QueryOptions threaded;
    threaded.threads = 4;
    const auto threaded_result = cpu->query(x, param.top_k, threaded);
    EXPECT_EQ(threaded_result.entries, cpu_result.entries) << "query " << q;
  }
}

TEST_P(CrossBackendAgreementTest, ApproximateBackendsClearRecallFloor) {
  const AgreementParam param = GetParam();
  const auto matrix =
      shared_matrix(param.rows, param.cols, param.mean_nnz, param.seed);
  IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  const auto exact = make_index("exact-sort", matrix);
  const auto fpga = make_index("fpga-sim", matrix, options);
  const auto gpu = make_index("gpu-f16", matrix);
  const auto simd_half = make_index("cpu-simd-f16", matrix);

  // 20-bit fixed point and binary16 both retrieve nearly all of the
  // exact top-K on embedding-scale data (paper Figure 7); 0.7 is a
  // conservative per-query floor that still catches a broken kernel.
  constexpr double kRecallFloor = 0.7;
  util::Xoshiro256 rng(param.seed + 2);
  for (int q = 0; q < 4; ++q) {
    const auto x = sparse::generate_dense_vector(param.cols, rng);
    const auto exact_indices = indices_of(exact->query(x, param.top_k));
    const double fpga_recall = eval::precision_at_k(
        indices_of(fpga->query(x, param.top_k)), exact_indices);
    const double gpu_recall = eval::precision_at_k(
        indices_of(gpu->query(x, param.top_k)), exact_indices);
    const double simd_half_recall = eval::precision_at_k(
        indices_of(simd_half->query(x, param.top_k)), exact_indices);
    EXPECT_GE(fpga_recall, kRecallFloor) << "query " << q;
    EXPECT_GE(gpu_recall, kRecallFloor) << "query " << q;
    EXPECT_GE(simd_half_recall, kRecallFloor) << "query " << q;
  }
}

TEST_P(CrossBackendAgreementTest, DefaultBatchPathMatchesPerQueryPath) {
  const AgreementParam param = GetParam();
  const auto matrix =
      shared_matrix(param.rows, param.cols, param.mean_nnz, param.seed);
  const auto cpu = make_index("cpu-heap", matrix);

  util::Xoshiro256 rng(param.seed + 3);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 5; ++q) {
    queries.push_back(sparse::generate_dense_vector(param.cols, rng));
  }
  QueryOptions options;
  options.threads = 3;
  const auto batch = cpu->query_batch(queries, param.top_k, options);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(batch[q].entries, cpu->query(queries[q], param.top_k).entries)
        << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CrossBackendAgreementTest,
    ::testing::Values(AgreementParam{400, 128, 8.0, 21, 10},
                      AgreementParam{999, 256, 16.0, 22, 25},
                      AgreementParam{2000, 64, 4.0, 23, 15}),
    [](const ::testing::TestParamInfo<AgreementParam>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace topk::index
