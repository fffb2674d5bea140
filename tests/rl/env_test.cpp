#include "rl/env.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace minicost::rl {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  EnvTest()
      : trace_(make_trace()),
        pricing_(pricing::PricingPolicy::azure_2020()),
        env_(trace_, pricing_, Featurizer{FeatureConfig{}}, RewardConfig{}) {}

  static trace::RequestTrace make_trace() {
    trace::SyntheticConfig config;
    config.file_count = 20;
    config.days = 40;
    config.seed = 8;
    return trace::generate_synthetic(config);
  }

  trace::RequestTrace trace_;
  pricing::PricingPolicy pricing_;
  TieringEnv env_;
};

TEST_F(EnvTest, ResetReturnsInitialState) {
  const auto state = env_.reset(0, pricing::StorageTier::kHot);
  EXPECT_EQ(state.size(), env_.featurizer().feature_count());
  EXPECT_EQ(env_.current_day(), env_.featurizer().history_len());
  EXPECT_EQ(env_.current_tier(), pricing::StorageTier::kHot);
}

TEST_F(EnvTest, StepAdvancesDayAndAppliesTier) {
  env_.reset(0, pricing::StorageTier::kHot, 14, 20);
  const StepResult result = env_.step(pricing::tier_index(pricing::StorageTier::kCool));
  EXPECT_EQ(env_.current_day(), 15u);
  EXPECT_EQ(env_.current_tier(), pricing::StorageTier::kCool);
  EXPECT_FALSE(result.done);
  EXPECT_GT(result.cost, 0.0);
  EXPECT_EQ(result.state.size(), env_.featurizer().feature_count());
}

TEST_F(EnvTest, CostIncludesChangeChargeOnSwitch) {
  env_.reset(0, pricing::StorageTier::kHot, 14, 20);
  const double with_switch = env_.step(pricing::tier_index(pricing::StorageTier::kCool)).cost;
  env_.reset(0, pricing::StorageTier::kCool, 14, 20);
  const double without_switch = env_.step(pricing::tier_index(pricing::StorageTier::kCool)).cost;
  const double expected_change = pricing_.change_cost(
      pricing::StorageTier::kHot, pricing::StorageTier::kCool,
      trace_.file(0).size_gb);
  EXPECT_NEAR(with_switch - without_switch, expected_change, 1e-12);
}

TEST_F(EnvTest, EpisodeEndsAtWindowEnd) {
  env_.reset(0, pricing::StorageTier::kHot, 14, 17);
  EXPECT_FALSE(env_.step(0).done);
  EXPECT_FALSE(env_.step(0).done);
  const StepResult last = env_.step(0);
  EXPECT_TRUE(last.done);
  EXPECT_TRUE(last.state.empty());
  EXPECT_THROW(env_.step(0), std::logic_error);
}

TEST_F(EnvTest, RejectsBadWindows) {
  EXPECT_THROW(env_.reset(0, pricing::StorageTier::kHot, 3, 20),
               std::out_of_range);  // before full history
  EXPECT_THROW(env_.reset(0, pricing::StorageTier::kHot, 20, 20),
               std::out_of_range);  // empty
  EXPECT_THROW(env_.reset(0, pricing::StorageTier::kHot, 20, 99),
               std::out_of_range);  // beyond horizon
}

TEST_F(EnvTest, RejectsBadAction) {
  env_.reset(0, pricing::StorageTier::kHot);
  EXPECT_THROW(env_.step(99), std::out_of_range);
}

TEST_F(EnvTest, RewardIsHigherForCheaperTier) {
  // For a near-dead file, archive must collect more reward than hot.
  trace::FileId quiet = 0;
  double best_mean = 1e9;
  for (trace::FileId i = 0; i < trace_.file_count(); ++i) {
    double mean = 0.0;
    for (double r : trace_.file(i).reads) mean += r;
    mean /= static_cast<double>(trace_.days());
    if (mean < best_mean) {
      best_mean = mean;
      quiet = i;
    }
  }
  if (best_mean > 0.1) GTEST_SKIP() << "no quiet file in this trace";

  env_.reset(quiet, pricing::StorageTier::kArchive, 14, 21);
  double archive_reward = 0.0;
  for (int i = 0; i < 7; ++i)
    archive_reward += env_.step(pricing::tier_index(pricing::StorageTier::kArchive)).reward;
  env_.reset(quiet, pricing::StorageTier::kHot, 14, 21);
  double hot_reward = 0.0;
  for (int i = 0; i < 7; ++i)
    hot_reward += env_.step(pricing::tier_index(pricing::StorageTier::kHot)).reward;
  EXPECT_GT(archive_reward, hot_reward);
}

TEST_F(EnvTest, DeterministicTransitions) {
  // Paper Sec. 4.2: P(s'|s,a) = 1 — same action sequence, same states.
  const auto s0_a = env_.reset(1, pricing::StorageTier::kHot, 14, 20);
  const auto r1_a = env_.step(1);
  const auto s0_b = env_.reset(1, pricing::StorageTier::kHot, 14, 20);
  const auto r1_b = env_.step(1);
  EXPECT_EQ(s0_a, s0_b);
  EXPECT_EQ(r1_a.state, r1_b.state);
  EXPECT_DOUBLE_EQ(r1_a.reward, r1_b.reward);
  EXPECT_DOUBLE_EQ(r1_a.cost, r1_b.cost);
}

}  // namespace
}  // namespace minicost::rl
