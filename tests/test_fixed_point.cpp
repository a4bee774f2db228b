#include "fixed/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace topk::fixed {
namespace {

TEST(FixedFormat, MaxRawAndFracBits) {
  EXPECT_EQ(kQ1_19.max_raw(), (1u << 20) - 1);
  EXPECT_EQ(kQ1_31.max_raw(), 0xFFFFFFFFu);
  EXPECT_EQ(kQ1_19.frac_bits(), 19);
}

TEST(FixedFormat, ValidateRejectsBadFormats) {
  EXPECT_THROW(validate(FixedFormat{1, 0}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{33, 1}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{8, 8}), std::invalid_argument);
  EXPECT_THROW(validate(FixedFormat{8, -1}), std::invalid_argument);
  EXPECT_NO_THROW(validate(kQ1_19));
}

TEST(Quantize, ZeroAndNegativeClampToZero) {
  EXPECT_EQ(quantize(0.0, kQ1_19), 0u);
  EXPECT_EQ(quantize(-0.5, kQ1_19), 0u);
  EXPECT_EQ(quantize(std::nan(""), kQ1_19), 0u);
}

TEST(Quantize, SaturatesAtMax) {
  EXPECT_EQ(quantize(100.0, kQ1_19), kQ1_19.max_raw());
  EXPECT_EQ(quantize(2.0, kQ1_19), kQ1_19.max_raw());
}

TEST(Quantize, RoundTripErrorBoundedByHalfLsb) {
  util::Xoshiro256 rng(17);
  for (const FixedFormat& format : {kQ1_19, kQ1_24, kQ1_31, FixedFormat{10, 1}}) {
    const double half_lsb = std::ldexp(0.5, -format.frac_bits());
    for (int i = 0; i < 1000; ++i) {
      const double value = rng.uniform();
      const std::uint32_t raw = quantize(value, format);
      const double back = dequantize(raw, format);
      EXPECT_LE(std::abs(back - value), half_lsb + 1e-15)
          << "V=" << format.total_bits;
    }
  }
}

TEST(Quantize, ExactValuesRoundTripExactly) {
  for (std::uint32_t raw : {0u, 1u, 12345u, (1u << 19), (1u << 20) - 1}) {
    EXPECT_EQ(quantize(dequantize(raw, kQ1_19), kQ1_19), raw);
  }
}

TEST(FixedAccumulator, SingleProductMatchesDouble) {
  FixedAccumulator acc;
  const std::uint32_t a = quantize(0.75, kQ1_19);
  const std::uint32_t b = quantize(0.5, kQ1_31);
  acc.add_product(a, kQ1_19.frac_bits(), b);
  EXPECT_NEAR(acc.to_double(), 0.375, 1e-9);
}

TEST(FixedAccumulator, AccumulationIsExactIntegerArithmetic) {
  // Two accumulators fed the same products in different groupings
  // must agree bit-for-bit (integer addition is associative).
  util::Xoshiro256 rng(23);
  FixedAccumulator all_at_once;
  FixedAccumulator grouped_a;
  FixedAccumulator grouped_b;
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t v = quantize(rng.uniform(), kQ1_19);
    const std::uint32_t x = quantize(rng.uniform(), kQ1_31);
    all_at_once.add_product(v, 19, x);
    (i % 2 == 0 ? grouped_a : grouped_b).add_product(v, 19, x);
  }
  grouped_a.add(grouped_b);
  EXPECT_EQ(all_at_once.raw(), grouped_a.raw());
}

TEST(FixedAccumulator, ComparesByRaw) {
  FixedAccumulator small;
  FixedAccumulator large;
  small.add_product(quantize(0.1, kQ1_19), 19, quantize(0.9, kQ1_31));
  large.add_product(quantize(0.9, kQ1_19), 19, quantize(0.9, kQ1_31));
  EXPECT_LT(small, large);
  EXPECT_EQ(small, small);
}

TEST(FixedAccumulator, LowFracFormatsShiftLeft) {
  // frac bits below kAccFracBits - 31 exercise the left-shift path.
  const FixedFormat narrow{8, 1};  // 7 frac bits
  FixedAccumulator acc;
  acc.add_product(quantize(0.5, narrow), narrow.frac_bits(),
                  quantize(0.5, kQ1_31));
  EXPECT_NEAR(acc.to_double(), 0.25, 1.0 / 128.0);
}

/// Parameterised sweep: quantisation error stays within half an LSB
/// across the whole family of formats the benches explore.
class FixedFormatSweep : public ::testing::TestWithParam<int> {};

TEST_P(FixedFormatSweep, QuantizationErrorWithinHalfLsb) {
  const FixedFormat format{GetParam(), 1};
  validate(format);
  util::Xoshiro256 rng(GetParam());
  double max_error = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double value = rng.uniform();
    const double back = dequantize(quantize(value, format), format);
    max_error = std::max(max_error, std::abs(back - value));
  }
  EXPECT_LE(max_error, std::ldexp(0.5, -format.frac_bits()) + 1e-15);
}

TEST_P(FixedFormatSweep, DotProductErrorScalesWithResolution) {
  const FixedFormat format{GetParam(), 1};
  util::Xoshiro256 rng(GetParam() * 7);
  constexpr int kTerms = 40;  // a typical embedding row
  double exact = 0.0;
  FixedAccumulator acc;
  for (int i = 0; i < kTerms; ++i) {
    const double v = rng.uniform(0.0, 0.15);
    const double x = rng.uniform(0.0, 0.15);
    exact += v * x;
    acc.add_product(quantize(v, format), format.frac_bits(),
                    quantize(x, kQ1_31));
  }
  // Error per product is <= lsb/2 * |x| + tiny accumulator truncation.
  const double half_lsb = std::ldexp(0.5, -format.frac_bits());
  const double bound = kTerms * (half_lsb * 0.15 + 1e-12) +
                       kTerms * std::ldexp(1.0, -kAccFracBits);
  EXPECT_NEAR(acc.to_double(), exact, bound) << "V=" << format.total_bits;
}

INSTANTIATE_TEST_SUITE_P(BitWidths, FixedFormatSweep,
                         ::testing::Values(8, 10, 12, 16, 20, 24, 25, 28, 32));

}  // namespace
}  // namespace topk::fixed
