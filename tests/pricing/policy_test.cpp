#include "pricing/policy.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>
#include <string>

namespace minicost::pricing {
namespace {

TEST(PricingPolicyTest, AzurePresetQuotesPaperPrices) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  // The paper (Sec. 1): hot reads $0.0044 per 10k ops in US West; cool
  // reads $0.01 per 10k ops.
  EXPECT_DOUBLE_EQ(azure.tier(StorageTier::kHot).read_per_10k_ops, 0.0044);
  EXPECT_DOUBLE_EQ(azure.tier(StorageTier::kCool).read_per_10k_ops, 0.0100);
  EXPECT_EQ(azure.name(), "azure-2020");
}

TEST(PricingPolicyTest, PresetsSatisfyTierMonotonicity) {
  EXPECT_NO_THROW(PricingPolicy::azure_2020().check_tier_monotonicity());
  EXPECT_NO_THROW(PricingPolicy::s3_like().check_tier_monotonicity());
  EXPECT_NO_THROW(PricingPolicy::gcs_like().check_tier_monotonicity());
}

TEST(PricingPolicyTest, PresetLooksUpCommandLineNames) {
  EXPECT_EQ(PricingPolicy::preset("azure").name(), "azure-2020");
  EXPECT_EQ(PricingPolicy::preset("s3").name(), "s3-like");
  EXPECT_EQ(PricingPolicy::preset("gcs").name(), "gcs-like");
  for (const char* bad : {"nosuch", "", "Azure", "azure-2020"}) {
    try {
      PricingPolicy::preset(bad);
      ADD_FAILURE() << "preset '" << bad << "' did not throw";
    } catch (const std::invalid_argument& error) {
      // The message names the valid list, so one stderr line is enough.
      EXPECT_NE(std::string(error.what()).find("azure | s3 | gcs"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(PricingPolicyTest, FlatPresetViolatesMonotonicity) {
  EXPECT_THROW(PricingPolicy::flat_test().check_tier_monotonicity(),
               std::invalid_argument);
}

TEST(PricingPolicyTest, StorageCostScalesWithSizeAndDays) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const double one_gb_day = azure.storage_cost_per_day(StorageTier::kHot, 1.0);
  EXPECT_NEAR(one_gb_day, 0.0184 / 30.0, 1e-12);
  EXPECT_NEAR(azure.storage_cost_per_day(StorageTier::kHot, 2.5),
              2.5 * one_gb_day, 1e-15);
}

TEST(PricingPolicyTest, ReadCostImplementsEquation7) {
  // Cr = F_r * (u_rf + u_rs * D).
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const TierPrice& hot = azure.tier(StorageTier::kHot);
  const double expected =
      100.0 * (hot.read_per_10k_ops / 1e4 + hot.read_per_gb * 0.1);
  EXPECT_NEAR(azure.read_cost(StorageTier::kHot, 100.0, 0.1), expected, 1e-15);
}

TEST(PricingPolicyTest, WriteCostImplementsEquation8) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const TierPrice& cool = azure.tier(StorageTier::kCool);
  const double expected =
      7.0 * (cool.write_per_10k_ops / 1e4 + cool.write_per_gb * 0.2);
  EXPECT_NEAR(azure.write_cost(StorageTier::kCool, 7.0, 0.2), expected, 1e-15);
}

TEST(PricingPolicyTest, FractionalOperationCountsAreLinear) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const double one = azure.read_cost(StorageTier::kHot, 1.0, 0.1);
  EXPECT_NEAR(azure.read_cost(StorageTier::kHot, 0.5, 0.1), one / 2, 1e-18);
}

TEST(PricingPolicyTest, ChangeCostImplementsEquation9) {
  // Cc = Θ * u_tran * D; Θ = 0 when the tier does not change.
  const PricingPolicy azure = PricingPolicy::azure_2020();
  EXPECT_DOUBLE_EQ(
      azure.change_cost(StorageTier::kHot, StorageTier::kHot, 5.0), 0.0);
  EXPECT_NEAR(azure.change_cost(StorageTier::kHot, StorageTier::kCool, 5.0),
              azure.tier_change_per_gb() * 5.0, 1e-15);
  // Symmetric in direction (the paper models a single u_tran).
  EXPECT_DOUBLE_EQ(
      azure.change_cost(StorageTier::kHot, StorageTier::kArchive, 1.0),
      azure.change_cost(StorageTier::kArchive, StorageTier::kHot, 1.0));
}

TEST(PricingPolicyTest, ReadOpPriceExcludesSizeComponent) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  EXPECT_NEAR(azure.read_op_price(StorageTier::kCool), 0.01 / 1e4, 1e-15);
}

TEST(PricingPolicyTest, ConstructorRejectsNegativePrices) {
  std::array<TierPrice, kTierCount> tiers{};
  tiers[0].storage_gb_month = -1.0;
  EXPECT_THROW(PricingPolicy("bad", tiers, 0.0), std::invalid_argument);
}

TEST(PricingPolicyTest, ConstructorRejectsBadDaysPerMonth) {
  std::array<TierPrice, kTierCount> tiers{};
  EXPECT_THROW(PricingPolicy("bad", tiers, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(PricingPolicy("bad", tiers, -0.1), std::invalid_argument);
}

TEST(PricingPolicyTest, ConstructorRejectsNonFiniteValues) {
  // `< 0.0` is false for NaN, so each field is probed with NaN and both
  // infinities, in every tier.
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  double TierPrice::*const fields[] = {
      &TierPrice::storage_gb_month, &TierPrice::read_per_10k_ops,
      &TierPrice::write_per_10k_ops, &TierPrice::read_per_gb,
      &TierPrice::write_per_gb};
  const std::array<TierPrice, kTierCount> zero{};
  EXPECT_NO_THROW(PricingPolicy("free", zero, 0.0));
  for (const double value : bad) {
    for (std::size_t t = 0; t < kTierCount; ++t) {
      for (double TierPrice::*field : fields) {
        std::array<TierPrice, kTierCount> tiers{};
        tiers[t].*field = value;
        EXPECT_THROW(PricingPolicy("bad", tiers, 0.0), std::invalid_argument)
            << "tier " << t << " value " << value;
      }
    }
    EXPECT_THROW(PricingPolicy("bad", zero, value), std::invalid_argument)
        << "tier change " << value;
    EXPECT_THROW(PricingPolicy("bad", zero, 0.0, value), std::invalid_argument)
        << "days_per_month " << value;
  }
}

TEST(PricingPolicyTest, OpMultiplierScalesOnlyOperationPrices) {
  const PricingPolicy base = PricingPolicy::azure_2020();
  const PricingPolicy scaled = with_op_price_multiplier(base, 100.0);
  for (StorageTier t : all_tiers()) {
    EXPECT_NEAR(scaled.tier(t).read_per_10k_ops,
                100.0 * base.tier(t).read_per_10k_ops, 1e-12);
    EXPECT_NEAR(scaled.tier(t).write_per_10k_ops,
                100.0 * base.tier(t).write_per_10k_ops, 1e-12);
    EXPECT_DOUBLE_EQ(scaled.tier(t).storage_gb_month,
                     base.tier(t).storage_gb_month);
    EXPECT_DOUBLE_EQ(scaled.tier(t).read_per_gb, base.tier(t).read_per_gb);
  }
  EXPECT_DOUBLE_EQ(scaled.tier_change_per_gb(), base.tier_change_per_gb());
}

TEST(PricingPolicyTest, OpMultiplierRejectsNonPositive) {
  EXPECT_THROW(with_op_price_multiplier(PricingPolicy::azure_2020(), 0.0),
               std::invalid_argument);
}

TEST(PricingPolicyTest, ColdStorageIsCheaperAtRestMoreExpensivePerAccess) {
  // The economic structure every experiment relies on.
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const double gb = 0.1;
  EXPECT_LT(azure.storage_cost_per_day(StorageTier::kArchive, gb),
            azure.storage_cost_per_day(StorageTier::kCool, gb));
  EXPECT_LT(azure.storage_cost_per_day(StorageTier::kCool, gb),
            azure.storage_cost_per_day(StorageTier::kHot, gb));
  EXPECT_GT(azure.read_cost(StorageTier::kArchive, 1.0, gb),
            azure.read_cost(StorageTier::kCool, 1.0, gb));
  EXPECT_GT(azure.read_cost(StorageTier::kCool, 1.0, gb),
            azure.read_cost(StorageTier::kHot, 1.0, gb));
}

}  // namespace
}  // namespace minicost::pricing
