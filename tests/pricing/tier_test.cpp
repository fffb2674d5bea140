#include "pricing/tier.hpp"

#include <gtest/gtest.h>

namespace minicost::pricing {
namespace {

TEST(TierTest, AllTiersEnumeratesThree) {
  const auto tiers = all_tiers();
  EXPECT_EQ(tiers.size(), kTierCount);
  EXPECT_EQ(tiers[0], StorageTier::kHot);
  EXPECT_EQ(tiers[1], StorageTier::kCool);
  EXPECT_EQ(tiers[2], StorageTier::kArchive);
}

TEST(TierTest, IndexRoundTrip) {
  for (StorageTier t : all_tiers()) {
    EXPECT_EQ(tier_from_index(tier_index(t)), t);
  }
}

TEST(TierTest, FromIndexRejectsOutOfRange) {
  EXPECT_THROW(tier_from_index(kTierCount), std::out_of_range);
  EXPECT_THROW(tier_from_index(99), std::out_of_range);
}

TEST(TierTest, NamesAreStable) {
  EXPECT_EQ(tier_name(StorageTier::kHot), "hot");
  EXPECT_EQ(tier_name(StorageTier::kCool), "cool");
  EXPECT_EQ(tier_name(StorageTier::kArchive), "archive");
}

}  // namespace
}  // namespace minicost::pricing
