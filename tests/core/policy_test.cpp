#include "core/policy.hpp"

#include <gtest/gtest.h>

#include "decide_one.hpp"
#include "trace/synthetic.hpp"

namespace minicost::core {
namespace {

trace::RequestTrace tiny_trace() {
  trace::SyntheticConfig config;
  config.file_count = 10;
  config.days = 10;
  config.seed = 23;
  return trace::generate_synthetic(config);
}

TEST(AlwaysTierPolicyTest, HotAlwaysReturnsHot) {
  const trace::RequestTrace tr = tiny_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> initial(10, pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, 10, initial};
  auto hot = make_hot_policy();
  for (trace::FileId f = 0; f < 10; ++f) {
    for (std::size_t day = 0; day < 10; ++day) {
      EXPECT_EQ(
          decide_one(*hot, context, f, day, pricing::StorageTier::kArchive),
          pricing::StorageTier::kHot);
    }
  }
}

TEST(AlwaysTierPolicyTest, NamesMatchPaper) {
  EXPECT_EQ(make_hot_policy()->name(), "Hot");
  EXPECT_EQ(make_cold_policy()->name(), "Cold");
  EXPECT_EQ(AlwaysTierPolicy(pricing::StorageTier::kArchive).name(), "Archive");
}

TEST(AlwaysTierPolicyTest, ColdMapsToCoolTier) {
  const trace::RequestTrace tr = tiny_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> initial(10, pricing::StorageTier::kHot);
  const PlanContext context{tr, azure, 0, 10, initial};
  auto cold = make_cold_policy();
  EXPECT_EQ(decide_one(*cold, context, 0, 0, pricing::StorageTier::kHot),
            pricing::StorageTier::kCool);
}

TEST(AlwaysTierPolicyTest, KnowledgeIsNone) {
  EXPECT_EQ(make_hot_policy()->knowledge(), Knowledge::kNone);
}

TEST(AlwaysTierPolicyTest, DecideDayFillsWholeBatch) {
  const trace::RequestTrace tr = tiny_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> current(10,
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, 10, current};
  std::vector<pricing::StorageTier> plan(10, pricing::StorageTier::kArchive);
  auto hot = make_hot_policy();
  hot->decide_day(context, 3, current, plan);
  for (pricing::StorageTier t : plan) EXPECT_EQ(t, pricing::StorageTier::kHot);
}

TEST(TieringPolicyTest, DecideDayValidatesSpanWidths) {
  const trace::RequestTrace tr = tiny_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> current(10,
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, 10, current};
  std::vector<pricing::StorageTier> narrow(3);
  std::vector<pricing::StorageTier> plan(10);
  auto hot = make_hot_policy();
  EXPECT_THROW(hot->decide_day(context, 0, narrow, plan),
               std::invalid_argument);
  EXPECT_THROW(hot->decide_day(context, 0, current, narrow),
               std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
