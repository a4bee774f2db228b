#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/stats.hpp"

namespace topk::util {
namespace {

TEST(Xoshiro256, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a() == b());
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  RunningStats stats;
  RunningStats squared_deviation;
  for (int i = 0; i < 100'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
    squared_deviation.add((u - 0.5) * (u - 0.5));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(squared_deviation.mean(), 1.0 / 12.0, 0.005);  // variance
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(2.5, 7.5);
    ASSERT_GE(u, 2.5);
    ASSERT_LT(u, 7.5);
  }
}

TEST(Xoshiro256, BoundedCoversRangeUniformly) {
  Xoshiro256 rng(11);
  constexpr std::uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) {
    const std::uint64_t v = rng.bounded(kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, kTrials / kBound, kTrials * 0.01);
  }
}

TEST(Xoshiro256, BoundedZeroReturnsZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Xoshiro256, SplitStreamsAreIndependent) {
  Xoshiro256 parent(13);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (parent() == child());
  }
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64, KnownSequence) {
  // Reference values from the splitmix64 reference implementation
  // seeded with 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454FULL);
}

}  // namespace
}  // namespace topk::util
