#include "rl/feature.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace minicost::rl {
namespace {

trace::FileRecord make_file(std::size_t days = 30, double rate = 2.0) {
  trace::FileRecord f;
  f.name = "f";
  f.size_gb = 0.1;
  f.reads.assign(days, rate);
  f.writes.assign(days, 0.5);
  return f;
}

TEST(FeaturizerTest, FeatureCountMatchesLayout) {
  FeatureConfig config;
  config.history_len = 14;
  config.include_day_of_week = true;
  config.include_summary = true;
  Featurizer featurizer(config);
  // history + write + size + 3 tier one-hot + 7 dow + 2 summary.
  EXPECT_EQ(featurizer.feature_count(), 14u + 2 + 3 + 7 + 2);
  EXPECT_EQ(featurizer.aux_count(), 14u);
}

TEST(FeaturizerTest, OptionalBlocksShrinkLayout) {
  FeatureConfig config;
  config.history_len = 7;
  config.include_day_of_week = false;
  config.include_summary = false;
  Featurizer featurizer(config);
  EXPECT_EQ(featurizer.feature_count(), 7u + 2 + 3);
}

// Log features are log1p(x) / 4, the featurizer's fixed log scale.
TEST(FeaturizerTest, HistoryIsLogScaledOldestFirst) {
  FeatureConfig config;
  config.history_len = 3;
  config.include_day_of_week = false;
  config.include_summary = false;
  Featurizer featurizer(config);
  trace::FileRecord f = make_file(10, 0.0);
  f.reads = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0};
  const auto features =
      featurizer.encode(f, 5, pricing::StorageTier::kHot);
  // History covers days 2,3,4 (oldest first).
  EXPECT_NEAR(features[0], std::log1p(2.0) / 4.0, 1e-12);
  EXPECT_NEAR(features[1], std::log1p(3.0) / 4.0, 1e-12);
  EXPECT_NEAR(features[2], std::log1p(4.0) / 4.0, 1e-12);
}

TEST(FeaturizerTest, TierOneHotIsExclusive) {
  Featurizer featurizer{FeatureConfig{}};
  const trace::FileRecord f = make_file();
  for (pricing::StorageTier tier : pricing::all_tiers()) {
    const auto features = featurizer.encode(f, 20, tier);
    const std::size_t base = featurizer.history_len() + 2;
    double total = 0.0;
    for (std::size_t i = 0; i < pricing::kTierCount; ++i) {
      total += features[base + i];
      if (i == pricing::tier_index(tier)) {
        EXPECT_DOUBLE_EQ(features[base + i], 1.0);
      }
    }
    EXPECT_DOUBLE_EQ(total, 1.0);
  }
}

TEST(FeaturizerTest, DayOfWeekOneHotRotates) {
  Featurizer featurizer{FeatureConfig{}};
  const trace::FileRecord f = make_file(40);
  const std::size_t dow_base = featurizer.history_len() + 2 + 3;
  for (std::size_t day = 20; day < 27; ++day) {
    const auto features = featurizer.encode(f, day, pricing::StorageTier::kHot);
    for (std::size_t d = 0; d < 7; ++d) {
      EXPECT_DOUBLE_EQ(features[dow_base + d], day % 7 == d ? 1.0 : 0.0);
    }
  }
}

TEST(FeaturizerTest, SummaryFeaturesAreWindowMeans) {
  FeatureConfig config;
  config.history_len = 14;
  Featurizer featurizer(config);
  const trace::FileRecord f = make_file(30, 3.0);  // constant rate
  const auto features = featurizer.encode(f, 20, pricing::StorageTier::kHot);
  const std::size_t summary_base = featurizer.feature_count() - 2;
  EXPECT_NEAR(features[summary_base], std::log1p(3.0) / 4.0, 1e-12);
  EXPECT_NEAR(features[summary_base + 1], std::log1p(3.0) / 4.0, 1e-12);
}

TEST(FeaturizerTest, EncodeRejectsDayWithoutFullHistory) {
  Featurizer featurizer{FeatureConfig{}};
  const trace::FileRecord f = make_file(30);
  EXPECT_THROW(featurizer.encode(f, 5, pricing::StorageTier::kHot),
               std::out_of_range);
  EXPECT_THROW(featurizer.encode(f, 31, pricing::StorageTier::kHot),
               std::out_of_range);
  EXPECT_NO_THROW(featurizer.encode(f, 14, pricing::StorageTier::kHot));
  EXPECT_NO_THROW(featurizer.encode(f, 30, pricing::StorageTier::kHot));
}

TEST(FeaturizerTest, RejectsBadConfig) {
  FeatureConfig config;
  config.history_len = 0;
  EXPECT_THROW(Featurizer{config}, std::invalid_argument);
}

TEST(FeaturizerTest, EncodeIntoReusesBuffer) {
  Featurizer featurizer{FeatureConfig{}};
  const trace::FileRecord f = make_file();
  std::vector<double> buffer;
  featurizer.encode_into(f, 20, pricing::StorageTier::kCool, buffer);
  EXPECT_EQ(buffer.size(), featurizer.feature_count());
  const auto fresh = featurizer.encode(f, 20, pricing::StorageTier::kCool);
  EXPECT_EQ(buffer, fresh);
}

}  // namespace
}  // namespace minicost::rl
