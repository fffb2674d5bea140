#include "rl/mdp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace minicost::rl {
namespace {

TEST(RewardTest, InverseAbsoluteMatchesEquation4) {
  // R = alpha / C + delta.
  RewardConfig config;
  config.mode = RewardMode::kInverseAbsolute;
  config.alpha = 1e-5;
  config.delta = 0.5;
  EXPECT_NEAR(reward_from_cost(1e-4, 1.0, config), 0.1 + 0.5, 1e-12);
}

TEST(RewardTest, InverseAbsoluteCapsAtConfiguredMaximum) {
  RewardConfig config;
  config.mode = RewardMode::kInverseAbsolute;
  config.alpha = 1.0;
  config.delta = 0.0;
  EXPECT_DOUBLE_EQ(reward_from_cost(1e-12, 1.0, config), kRewardCap);
  EXPECT_DOUBLE_EQ(reward_from_cost(0.0, 1.0, config), kRewardCap);
}

TEST(RewardTest, InverseRelativeNormalizesByBaseline) {
  RewardConfig config;  // default mode is kInverseRelative, alpha 1, delta 0
  config.delta = 0.0;
  // Cost equal to the hot baseline => reward alpha = 1.
  EXPECT_NEAR(reward_from_cost(2e-4, 2e-4, config), 1.0, 1e-12);
  // Half the baseline cost => reward 2.
  EXPECT_NEAR(reward_from_cost(1e-4, 2e-4, config), 2.0, 1e-12);
}

TEST(RewardTest, InverseRelativePreservesActionOrdering) {
  // For a fixed state (fixed baseline), cheaper actions always earn more —
  // the property that makes the normalization optimal-policy-preserving.
  RewardConfig config;
  const double baseline = 1e-4;
  double previous = reward_from_cost(5e-4, baseline, config);
  for (double cost : {4e-4, 3e-4, 2e-4, 1e-4, 5e-5}) {
    const double r = reward_from_cost(cost, baseline, config);
    EXPECT_GT(r, previous);
    previous = r;
  }
}

TEST(RewardTest, InverseRelativeCapBoundsReward) {
  RewardConfig config;
  config.delta = 0.0;
  EXPECT_DOUBLE_EQ(reward_from_cost(1e-9, 1.0, config), kRewardCap);
}

TEST(RewardTest, NegativeCostModeIsAffineInCost) {
  RewardConfig config;
  config.mode = RewardMode::kNegativeCost;
  config.delta = 0.0;
  EXPECT_NEAR(reward_from_cost(2e-4, 1.0, config), -2.0, 1e-12);
  EXPECT_NEAR(reward_from_cost(0.0, 1.0, config), 0.0, 1e-12);
}

TEST(RewardTest, DeltaShiftsEveryMode) {
  for (RewardMode mode : {RewardMode::kInverseAbsolute,
                          RewardMode::kInverseRelative,
                          RewardMode::kNegativeCost}) {
    RewardConfig base;
    base.mode = mode;
    base.delta = 0.0;
    RewardConfig shifted = base;
    shifted.delta = -1.0;
    EXPECT_NEAR(reward_from_cost(1e-4, 1e-4, shifted),
                reward_from_cost(1e-4, 1e-4, base) - 1.0, 1e-12);
  }
}

TEST(RewardTest, ZeroBaselineFallsBackGracefully) {
  RewardConfig config;  // relative mode
  EXPECT_NO_THROW(reward_from_cost(1e-4, 0.0, config));
  EXPECT_TRUE(std::isfinite(reward_from_cost(1e-4, 0.0, config)));
}

// Property sweep: for every mode, reward is non-increasing in cost at a
// fixed baseline — the minimal alignment property a cost-minimizing reward
// must satisfy.
class RewardMonotonicity : public ::testing::TestWithParam<RewardMode> {};

TEST_P(RewardMonotonicity, RewardFallsAsCostRises) {
  RewardConfig config;
  config.mode = GetParam();
  config.alpha = 1e-5;
  const double baseline = 1e-4;
  double previous = reward_from_cost(1e-7, baseline, config);
  for (double cost = 2e-7; cost < 1e-2; cost *= 1.7) {
    const double r = reward_from_cost(cost, baseline, config);
    EXPECT_LE(r, previous + 1e-12) << "cost " << cost;
    previous = r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RewardMonotonicity,
                         ::testing::Values(RewardMode::kInverseAbsolute,
                                           RewardMode::kInverseRelative,
                                           RewardMode::kNegativeCost));

TEST(ActionSpaceTest, MatchesTierCount) {
  // Paper Sec. 4.2.2: the per-file action picks one of Γ tiers.
  EXPECT_EQ(kActionCount, pricing::kTierCount);
  EXPECT_EQ(kActionCount, 3u);
}

}  // namespace
}  // namespace minicost::rl
