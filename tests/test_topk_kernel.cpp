#include "core/topk_spmv.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/packet_layout.hpp"
#include "test_helpers.hpp"

namespace topk::core {
namespace {

TEST(TopKScratchpad, FillsThenReplacesArgmin) {
  TopKScratchpad pad(3);
  pad.insert(0, 0.5);
  pad.insert(1, 0.2);
  pad.insert(2, 0.8);
  EXPECT_DOUBLE_EQ(pad.sorted_descending().back().value, 0.2);
  pad.insert(3, 0.3);  // evicts 0.2
  pad.insert(4, 0.1);  // below the minimum: ignored

  const auto sorted = pad.sorted_descending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].index, 2u);
  EXPECT_EQ(sorted[1].index, 0u);
  EXPECT_EQ(sorted[2].index, 3u);
}

TEST(TopKScratchpad, TieReplacesIncumbent) {
  // The hardware's >= comparison lets an equal-valued later row evict
  // the current argmin.
  TopKScratchpad pad(2);
  pad.insert(0, 0.5);
  pad.insert(1, 0.5);
  pad.insert(2, 0.5);
  const auto sorted = pad.sorted_descending();
  ASSERT_EQ(sorted.size(), 2u);
  // Row 2 replaced one incumbent.
  EXPECT_TRUE(sorted[0].index == 2 || sorted[1].index == 2);
}

TEST(TopKScratchpad, PartialFillAndValidation) {
  TopKScratchpad pad(8);
  pad.insert(0, 0.1);
  pad.insert(1, 0.7);
  EXPECT_EQ(pad.size(), 2u);
  EXPECT_DOUBLE_EQ(pad.sorted_descending().back().value, 0.1);
  EXPECT_EQ(pad.sorted_descending().size(), 2u);
  EXPECT_THROW(TopKScratchpad(0), std::invalid_argument);
  EXPECT_THROW(TopKScratchpad(-1), std::invalid_argument);
}

TEST(QuantizeVector, ProducesQ131Raws) {
  const std::vector<float> x{0.0f, 0.5f, 1.0f};
  const auto raws = quantize_vector(x);
  ASSERT_EQ(raws.size(), 3u);
  EXPECT_EQ(raws[0], 0u);
  EXPECT_EQ(raws[1], 1u << 30);
  EXPECT_EQ(raws[2], 1u << 31);
}

TEST(Kernel, RejectsBadArguments) {
  const sparse::Csr matrix = test::small_random_matrix(20, 64, 4.0, 11);
  const auto encoded = encode_bscsr(matrix, PacketLayout::solve(64, 20),
                                    ValueKind::kFixed);
  const std::vector<float> x(64, 0.1f);
  const std::vector<float> wrong(32, 0.1f);
  EXPECT_THROW((void)run_topk_spmv(encoded, wrong, 8, 8), std::invalid_argument);
  EXPECT_THROW((void)run_topk_spmv(encoded, x, 0, 8), std::invalid_argument);
  EXPECT_THROW((void)run_topk_spmv(encoded, x, 8, 0), std::invalid_argument);
}

TEST(Kernel, EmitsEveryRowExactlyOnce) {
  const sparse::Csr matrix = test::adversarial_matrix(64);
  const auto encoded = encode_bscsr(matrix, PacketLayout::solve(64, 20),
                                    ValueKind::kFixed);
  util::Xoshiro256 rng(5);
  const auto x = sparse::generate_dense_vector(64, rng);
  const KernelResult result = run_topk_spmv(encoded, x, 4, 64);
  EXPECT_EQ(result.stats.rows_emitted, matrix.rows());
  EXPECT_EQ(result.stats.rows_dropped, 0u);
  EXPECT_EQ(result.stats.packets, encoded.num_packets());
}

TEST(Kernel, RLimitDropsExcessRowsAndEnforcementRestoresThem) {
  // 60 single-entry rows -> up to B finished rows per packet.  With
  // r = 2 the kernel must drop rows; with encoder enforcement it must
  // not.
  sparse::Coo coo(60, 32);
  for (std::uint32_t r = 0; r < 60; ++r) {
    coo.push_back(r, r % 32, 0.25f + 0.01f * static_cast<float>(r % 8));
  }
  const sparse::Csr matrix = sparse::Csr::from_coo(std::move(coo));
  const PacketLayout layout = PacketLayout::solve(32, 20);
  util::Xoshiro256 rng(21);
  const auto x = sparse::generate_dense_vector(32, rng);

  const auto unconstrained = encode_bscsr(matrix, layout, ValueKind::kFixed);
  const KernelResult dropped = run_topk_spmv(unconstrained, x, 8, 2);
  EXPECT_GT(dropped.stats.rows_dropped, 0u);
  EXPECT_EQ(dropped.stats.rows_emitted, 60u);

  EncodeOptions options;
  options.max_rows_per_packet = 2;
  const auto enforced = encode_bscsr(matrix, layout, ValueKind::kFixed, options);
  const KernelResult safe = run_topk_spmv(enforced, x, 8, 2);
  EXPECT_EQ(safe.stats.rows_dropped, 0u);

  const auto scores =
      test::reference_scores(matrix, x, ValueKind::kFixed, 20);
  test::expect_exact_topk(safe.topk, scores, 8);
}

TEST(Kernel, GenerousRLimitNeverDrops) {
  const sparse::Csr matrix = test::small_random_matrix(500, 256, 3.0, 31);
  const PacketLayout layout = PacketLayout::solve(256, 20);
  const auto encoded = encode_bscsr(matrix, layout, ValueKind::kFixed);
  util::Xoshiro256 rng(6);
  const auto x = sparse::generate_dense_vector(256, rng);
  const KernelResult result =
      run_topk_spmv(encoded, x, 8, layout.capacity);
  EXPECT_EQ(result.stats.rows_dropped, 0u);
}

TEST(Kernel, RealisticDensityNeedsOnlySmallR) {
  // Section IV-B: B/4 < r < B/2 loses nothing on realistic embedding
  // densities (20+ nnz per row vs B = 15).
  const sparse::Csr matrix = test::small_random_matrix(2000, 1024, 20.0, 77);
  const PacketLayout layout = PacketLayout::solve(1024, 20);
  const auto encoded = encode_bscsr(matrix, layout, ValueKind::kFixed);
  util::Xoshiro256 rng(8);
  const auto x = sparse::generate_dense_vector(1024, rng);
  const KernelResult result = run_topk_spmv(encoded, x, 8, 4);  // r = 4
  EXPECT_EQ(result.stats.rows_dropped, 0u);
  EXPECT_LE(result.stats.max_rows_in_packet, 4u);
}

/// Property sweep: the kernel's top-k equals the bit-exact reference
/// oracle across arithmetic kinds, densities and distributions.
struct KernelParam {
  std::uint32_t rows;
  std::uint32_t cols;
  double mean_nnz;
  int val_bits;
  ValueKind kind;
  sparse::RowDistribution distribution;
  int k;
};

class KernelOracle : public ::testing::TestWithParam<KernelParam> {};

TEST_P(KernelOracle, MatchesBitExactReference) {
  const KernelParam param = GetParam();
  const sparse::Csr matrix =
      test::small_random_matrix(param.rows, param.cols, param.mean_nnz,
                                2000 + param.rows, param.distribution);
  const PacketLayout layout = PacketLayout::solve(param.cols, param.val_bits);
  const auto encoded = encode_bscsr(matrix, layout, param.kind);
  util::Xoshiro256 rng(3000 + param.k);
  const auto x = sparse::generate_dense_vector(param.cols, rng);

  const KernelResult result =
      run_topk_spmv(encoded, x, param.k, layout.capacity);
  const auto scores =
      test::reference_scores(matrix, x, param.kind, param.val_bits);
  test::expect_exact_topk(result.topk, scores, param.k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelOracle,
    ::testing::Values(
        KernelParam{500, 512, 20.0, 20, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 8},
        KernelParam{500, 512, 20.0, 25, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 8},
        KernelParam{500, 512, 20.0, 32, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 8},
        KernelParam{500, 512, 20.0, 32, ValueKind::kFloat32,
                    sparse::RowDistribution::kUniform, 8},
        KernelParam{800, 1024, 40.0, 20, ValueKind::kFixed,
                    sparse::RowDistribution::kGamma, 16},
        KernelParam{800, 1024, 40.0, 32, ValueKind::kFloat32,
                    sparse::RowDistribution::kGamma, 16},
        KernelParam{300, 64, 2.0, 20, ValueKind::kFixed,
                    sparse::RowDistribution::kGamma, 4},
        KernelParam{100, 128, 5.0, 10, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 100},
        KernelParam{64, 4096, 60.0, 12, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 8},
        KernelParam{50, 32, 1.0, 20, ValueKind::kFixed,
                    sparse::RowDistribution::kUniform, 8}));

TEST(Kernel, AdversarialMatrixMatchesReference) {
  const sparse::Csr matrix = test::adversarial_matrix(64);
  for (const ValueKind kind : {ValueKind::kFixed, ValueKind::kFloat32}) {
    const int val_bits = kind == ValueKind::kFloat32 ? 32 : 20;
    const PacketLayout layout = PacketLayout::solve(64, val_bits);
    const auto encoded = encode_bscsr(matrix, layout, kind);
    util::Xoshiro256 rng(17);
    const auto x = sparse::generate_dense_vector(64, rng);
    const KernelResult result =
        run_topk_spmv(encoded, x, 5, layout.capacity);
    const auto scores = test::reference_scores(matrix, x, kind, val_bits);
    test::expect_exact_topk(result.topk, scores, 5);
  }
}

}  // namespace
}  // namespace topk::core
