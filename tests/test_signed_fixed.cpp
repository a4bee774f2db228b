// Tests for the kSignedFixed extension: two's-complement quantisation,
// the signed streaming kernel, and end-to-end accelerator queries on
// embeddings with negative components.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "core/accelerator.hpp"
#include "core/bscsr.hpp"
#include "fixed/fixed_point.hpp"
#include "test_helpers.hpp"

namespace topk {
namespace {

using core::DesignConfig;
using core::PacketLayout;
using core::ValueKind;
using fixed::dequantize_signed;
using fixed::FixedFormat;
using fixed::quantize_signed;
using fixed::sign_extend;

TEST(SignExtend, KnownPatterns) {
  EXPECT_EQ(sign_extend(0x0, 4), 0);
  EXPECT_EQ(sign_extend(0x7, 4), 7);
  EXPECT_EQ(sign_extend(0x8, 4), -8);
  EXPECT_EQ(sign_extend(0xF, 4), -1);
  EXPECT_EQ(sign_extend(0xFFFFF, 20), -1);
  EXPECT_EQ(sign_extend(0x80000000u, 32),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(sign_extend(0x7FFFFFFFu, 32), 0x7FFFFFFF);
}

TEST(QuantizeSigned, ZeroAndExtremes) {
  const FixedFormat format{20, 1};
  EXPECT_EQ(quantize_signed(0.0, format), 0u);
  // +1.0 saturates at 2^19 - 1 raw (just below 1.0).
  const std::uint32_t max_raw = quantize_signed(10.0, format);
  EXPECT_EQ(max_raw, (1u << 19) - 1);
  // -1.0 is exactly representable: raw = -2^19 (two's complement).
  const std::uint32_t min_raw = quantize_signed(-10.0, format);
  EXPECT_EQ(min_raw, 1u << 19);
  EXPECT_DOUBLE_EQ(dequantize_signed(min_raw, format), -1.0);
  EXPECT_EQ(quantize_signed(std::nan(""), format), 0u);
}

TEST(QuantizeSigned, RoundTripErrorWithinHalfLsb) {
  util::Xoshiro256 rng(61);
  for (const FixedFormat format : {FixedFormat{20, 1}, FixedFormat{25, 1},
                                   FixedFormat{32, 1}, FixedFormat{8, 1}}) {
    const double half_lsb = std::ldexp(0.5, -format.frac_bits());
    for (int i = 0; i < 1000; ++i) {
      const double value = rng.uniform(-0.999, 0.999);
      const double back =
          dequantize_signed(quantize_signed(value, format), format);
      EXPECT_LE(std::abs(back - value), half_lsb + 1e-15)
          << "V=" << format.total_bits << " value=" << value;
    }
  }
}

TEST(QuantizeSigned, NegativeValuesPreserveOrdering) {
  const FixedFormat format{20, 1};
  double previous = -2.0;
  for (double v = -1.0; v <= 1.0; v += 0.01) {
    const double decoded = dequantize_signed(quantize_signed(v, format), format);
    EXPECT_GE(decoded, previous);
    previous = decoded;
  }
}

TEST(SignedDesign, ConstructorAndName) {
  const DesignConfig design = DesignConfig::signed_fixed(20, 16);
  EXPECT_EQ(design.value_kind, ValueKind::kSignedFixed);
  EXPECT_EQ(design.name(), "FPGA s20b 16C");
  EXPECT_EQ(core::to_string(ValueKind::kSignedFixed), "signed-fixed");
}

TEST(SignedBsCsr, RoundTripPreservesSigns) {
  const sparse::Csr matrix = test::small_signed_matrix(100, 128, 10.0, 62);
  const PacketLayout layout = PacketLayout::solve(128, 20);
  const auto encoded = core::encode_bscsr(matrix, layout, ValueKind::kSignedFixed);
  const sparse::Csr decoded = core::decode_bscsr(encoded);
  ASSERT_EQ(decoded.nnz(), matrix.nnz());
  bool saw_negative = false;
  for (std::size_t i = 0; i < matrix.nnz(); ++i) {
    EXPECT_NEAR(decoded.values()[i], matrix.values()[i], 1.0f / (1 << 19));
    saw_negative |= decoded.values()[i] < 0.0f;
  }
  EXPECT_TRUE(saw_negative);
}

struct SignedKernelParam {
  std::uint32_t rows;
  std::uint32_t cols;
  int val_bits;
  int k;
};

class SignedKernelOracle : public ::testing::TestWithParam<SignedKernelParam> {};

TEST_P(SignedKernelOracle, MatchesBitExactReference) {
  const SignedKernelParam param = GetParam();
  const sparse::Csr matrix =
      test::small_signed_matrix(param.rows, param.cols, 15.0, 63 + param.rows);
  const PacketLayout layout = PacketLayout::solve(param.cols, param.val_bits);
  const auto encoded =
      core::encode_bscsr(matrix, layout, ValueKind::kSignedFixed);
  util::Xoshiro256 rng(64 + param.k);
  const auto x = test::signed_query(param.cols, rng);

  const core::KernelResult result =
      core::run_topk_spmv(encoded, x, param.k, layout.capacity);
  const auto scores = test::reference_scores(
      matrix, x, ValueKind::kSignedFixed, param.val_bits);
  test::expect_exact_topk(result.topk, scores, param.k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SignedKernelOracle,
    ::testing::Values(SignedKernelParam{400, 512, 20, 8},
                      SignedKernelParam{400, 512, 25, 8},
                      SignedKernelParam{400, 512, 32, 8},
                      SignedKernelParam{200, 1024, 20, 16},
                      SignedKernelParam{100, 64, 12, 4}));

TEST(SignedAccelerator, RetrievesNegativeCorrelationsLast) {
  // With signed data, anti-correlated rows must sink to the bottom —
  // something the unsigned design cannot express.
  const sparse::Csr matrix = test::small_signed_matrix(500, 256, 12.0, 65);
  DesignConfig design = DesignConfig::signed_fixed(20, 4);
  design.k = 16;
  const core::TopKAccelerator accelerator(matrix, design);
  util::Xoshiro256 rng(66);
  const auto x = test::signed_query(256, rng);

  const auto result = accelerator.query(x, 16);
  const auto scores =
      test::reference_scores(matrix, x, ValueKind::kSignedFixed, 20);
  test::expect_exact_topk(result.entries, scores, 16);
  // Some rows must have genuinely negative scores for this workload.
  const double min_score = *std::min_element(scores.begin(), scores.end());
  EXPECT_LT(min_score, 0.0);
}

TEST(SignedAccelerator, AgreesWithExactCpuOnRanking) {
  const sparse::Csr matrix = test::small_signed_matrix(2000, 512, 20.0, 67);
  const core::TopKAccelerator accelerator(
      matrix, DesignConfig::signed_fixed(25, 16));
  util::Xoshiro256 rng(68);
  int hits = 0;
  constexpr int kTopK = 20;
  for (int q = 0; q < 3; ++q) {
    const auto x = test::signed_query(512, rng);
    const auto result = accelerator.query(x, kTopK);
    std::vector<double> exact(matrix.rows());
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
      exact[r] = matrix.row_dot(r, x);
    }
    std::vector<std::uint32_t> order(matrix.rows());
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
      order[r] = r;
    }
    std::partial_sort(order.begin(), order.begin() + kTopK, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        return exact[a] > exact[b];
                      });
    std::unordered_set<std::uint32_t> exact_set(order.begin(),
                                                order.begin() + kTopK);
    for (const auto& entry : result.entries) {
      hits += exact_set.count(entry.index);
    }
  }
  EXPECT_GE(hits, 3 * kTopK - 4);  // 25-bit quantisation barely perturbs
}

}  // namespace
}  // namespace topk
