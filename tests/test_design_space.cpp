#include "hbmsim/design_space.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace topk::hbmsim {
namespace {

using core::DesignConfig;

WorkloadGoal paper_goal() {
  WorkloadGoal goal;
  goal.rows = 10'000'000;
  goal.cols = 1024;
  goal.nnz = 200'000'000;
  goal.top_k = 100;
  goal.min_precision = 0.99;
  return goal;
}

TEST(WorkloadGoal, Validation) {
  WorkloadGoal goal = paper_goal();
  EXPECT_NO_THROW(validate(goal));
  goal.rows = 0;
  EXPECT_THROW(validate(goal), std::invalid_argument);
  goal = paper_goal();
  goal.min_precision = 0.0;
  EXPECT_THROW(validate(goal), std::invalid_argument);
  goal = paper_goal();
  goal.min_precision = 1.5;
  EXPECT_THROW(validate(goal), std::invalid_argument);
  goal = paper_goal();
  goal.min_value_bits = 1;
  EXPECT_THROW(validate(goal), std::invalid_argument);
}

TEST(EvaluateDesign, PaperDefaultIsFeasible) {
  const OperatingPoint point =
      evaluate_design(DesignConfig::fixed(20), paper_goal(), board_u280());
  EXPECT_TRUE(point.fits);
  EXPECT_TRUE(point.meets_precision);
  EXPECT_GT(point.expected_precision, 0.99);
  EXPECT_LT(point.modelled_seconds, 4e-3);  // the paper's < 4 ms claim
}

TEST(EvaluateDesign, StarvedCandidatePoolFailsPrecision) {
  // k * cores < K can never surface enough candidates.
  WorkloadGoal goal = paper_goal();
  DesignConfig design = DesignConfig::fixed(20, 8);
  design.k = 8;  // 64 < K = 100
  const OperatingPoint point = evaluate_design(design, goal, board_u280());
  EXPECT_FALSE(point.meets_precision);
}

TEST(RecommendFastest, PicksNarrowFixedFullCores) {
  // Fastest feasible design for the paper workload: maximum cores,
  // narrow values (bigger B), fixed point.
  const OperatingPoint best = recommend_fastest(paper_goal(), board_u280());
  EXPECT_EQ(best.design.cores, 32);
  EXPECT_EQ(best.design.value_kind, core::ValueKind::kFixed);
  EXPECT_LE(best.design.value_bits, 20);
  EXPECT_TRUE(best.feasible());
}

TEST(RecommendFastest, PrecisionFloorForcesMoreCandidates) {
  // An extreme precision floor at K=100 forces k > 8 or more cores.
  WorkloadGoal strict = paper_goal();
  strict.min_precision = 0.9999;
  const OperatingPoint best = recommend_fastest(strict, board_u280());
  EXPECT_TRUE(best.feasible());
  EXPECT_GE(best.expected_precision, 0.9999);
  EXPECT_GT(static_cast<std::int64_t>(best.design.k) * best.design.cores, 256);
}

TEST(RecommendFastest, RespectsValueBitsFloor) {
  WorkloadGoal goal = paper_goal();
  goal.min_value_bits = 16;
  EXPECT_GE(recommend_fastest(goal, board_u280()).design.value_bits, 16);
  EXPECT_GE(recommend_cheapest(goal, board_u280()).design.value_bits, 16);
}

TEST(RecommendFastest, ThrowsWhenNothingFeasible) {
  WorkloadGoal impossible = paper_goal();
  impossible.min_precision = 1.0;
  impossible.top_k = 10'000;  // k*c can never reach 10000 on the grid
  EXPECT_THROW((void)recommend_fastest(impossible, board_u280()),
               std::runtime_error);
}

TEST(RecommendCheapest, TradesSpeedForPower) {
  const OperatingPoint fastest = recommend_fastest(paper_goal(), board_u280());
  const OperatingPoint cheapest =
      recommend_cheapest(paper_goal(), board_u280(), 3.0);
  EXPECT_LE(cheapest.modelled_power_w, fastest.modelled_power_w);
  EXPECT_LE(cheapest.modelled_seconds, fastest.modelled_seconds * 3.0 + 1e-12);
  EXPECT_THROW((void)recommend_cheapest(paper_goal(), board_u280(), 0.5),
               std::invalid_argument);
}

TEST(DesignSpace, U50NeedsNoPerfSacrificePerChannel) {
  // The future-work scenario: the same goal on the U50 stays feasible
  // (the fabric holds 32 cores of this design), just slower by the
  // bandwidth ratio.
  const OperatingPoint u280 = recommend_fastest(paper_goal(), board_u280());
  const OperatingPoint u50 = recommend_fastest(paper_goal(), board_u50());
  EXPECT_TRUE(u50.feasible());
  EXPECT_GT(u50.modelled_seconds, u280.modelled_seconds);
  EXPECT_LT(u50.modelled_seconds, u280.modelled_seconds * 1.6);
}

}  // namespace
}  // namespace topk::hbmsim
