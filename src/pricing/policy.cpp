#include "pricing/policy.hpp"

#include <cmath>
#include <stdexcept>

namespace minicost::pricing {

PricingPolicy::PricingPolicy(std::string name,
                             std::array<TierPrice, kTierCount> tiers,
                             double tier_change_per_gb, double days_per_month)
    : name_(std::move(name)),
      tiers_(tiers),
      tier_change_per_gb_(tier_change_per_gb),
      days_per_month_(days_per_month) {
  // Written so NaN fails too: every comparison with NaN is false.
  const auto is_price = [](double x) { return x >= 0.0 && std::isfinite(x); };
  if (!(days_per_month > 0.0 && std::isfinite(days_per_month)))
    throw std::invalid_argument(
        "PricingPolicy: days_per_month must be finite and > 0");
  if (!is_price(tier_change_per_gb))
    throw std::invalid_argument(
        "PricingPolicy: tier change price must be finite and >= 0");
  for (const TierPrice& p : tiers_) {
    if (!is_price(p.storage_gb_month) || !is_price(p.read_per_10k_ops) ||
        !is_price(p.write_per_10k_ops) || !is_price(p.read_per_gb) ||
        !is_price(p.write_per_gb))
      throw std::invalid_argument(
          "PricingPolicy: unit prices must be finite and >= 0");
  }
}

double PricingPolicy::storage_cost_per_day(StorageTier t, double gb) const noexcept {
  return tier(t).storage_gb_month / days_per_month_ * gb;
}

double PricingPolicy::read_cost(StorageTier t, double ops, double gb) const noexcept {
  const TierPrice& p = tier(t);
  return ops * (p.read_per_10k_ops / 1e4 + p.read_per_gb * gb);
}

double PricingPolicy::write_cost(StorageTier t, double ops, double gb) const noexcept {
  const TierPrice& p = tier(t);
  return ops * (p.write_per_10k_ops / 1e4 + p.write_per_gb * gb);
}

double PricingPolicy::change_cost(StorageTier from, StorageTier to,
                                  double gb) const noexcept {
  if (from == to) return 0.0;
  return tier_change_per_gb_ * gb;
}

double PricingPolicy::read_op_price(StorageTier t) const noexcept {
  return tier(t).read_per_10k_ops / 1e4;
}

void PricingPolicy::check_tier_monotonicity() const {
  for (std::size_t i = 1; i < kTierCount; ++i) {
    const TierPrice& colder = tiers_[i];
    const TierPrice& warmer = tiers_[i - 1];
    if (!(colder.storage_gb_month < warmer.storage_gb_month))
      throw std::invalid_argument(name_ +
                                  ": storage price must fall toward colder tiers");
    if (colder.read_per_10k_ops < warmer.read_per_10k_ops ||
        colder.read_per_gb < warmer.read_per_gb)
      throw std::invalid_argument(name_ +
                                  ": read price must rise toward colder tiers");
  }
}

PricingPolicy PricingPolicy::azure_2020() {
  // Hot read-op price is the paper's quoted $0.0044 / 10k (US West); cool
  // read-op price its quoted $0.01 / 10k. Storage follows the 2020 sheet
  // (hot $0.0184, cool $0.01 / GB-month; archive ~$0.002). Per-GB read
  // prices encode the retrieval surcharge of colder tiers.
  std::array<TierPrice, kTierCount> tiers{};
  tiers[tier_index(StorageTier::kHot)] =
      TierPrice{0.0184, 0.0044, 0.055, 0.0004, 0.0};
  tiers[tier_index(StorageTier::kCool)] =
      TierPrice{0.0100, 0.0100, 0.100, 0.0005, 0.0005};
  tiers[tier_index(StorageTier::kArchive)] =
      TierPrice{0.00099, 0.0600, 0.110, 0.0020, 0.0020};
  // The tier-change price creates the hysteresis Sec. 3.2 warns about:
  // "frequently changing the type of a data file may generate more cost
  // than the cost saving". At 100 MB a round trip costs ~2 days of the
  // hot/cool cost delta at the crossover, so chasing daily noise loses
  // money while riding multi-day swings wins.
  return PricingPolicy("azure-2020", tiers, /*tier_change_per_gb=*/0.0002);
}

PricingPolicy PricingPolicy::s3_like() {
  std::array<TierPrice, kTierCount> tiers{};
  tiers[tier_index(StorageTier::kHot)] =
      TierPrice{0.0230, 0.0040, 0.050, 0.0004, 0.0};
  tiers[tier_index(StorageTier::kCool)] =
      TierPrice{0.0125, 0.0100, 0.100, 0.0010, 0.0};
  tiers[tier_index(StorageTier::kArchive)] =
      TierPrice{0.0040, 0.0500, 0.500, 0.0030, 0.0};
  return PricingPolicy("s3-like", tiers, /*tier_change_per_gb=*/0.0006);
}

PricingPolicy PricingPolicy::gcs_like() {
  std::array<TierPrice, kTierCount> tiers{};
  tiers[tier_index(StorageTier::kHot)] =
      TierPrice{0.0200, 0.0040, 0.050, 0.0005, 0.0};
  tiers[tier_index(StorageTier::kCool)] =
      TierPrice{0.0100, 0.0100, 0.100, 0.0010, 0.0};
  tiers[tier_index(StorageTier::kArchive)] =
      TierPrice{0.0070, 0.0500, 0.100, 0.0020, 0.0};
  return PricingPolicy("gcs-like", tiers, /*tier_change_per_gb=*/0.0005);
}

PricingPolicy PricingPolicy::preset(std::string_view name) {
  if (name == "azure") return azure_2020();
  if (name == "s3") return s3_like();
  if (name == "gcs") return gcs_like();
  throw std::invalid_argument("unknown price preset '" + std::string(name) +
                              "' (expected azure | s3 | gcs)");
}

PricingPolicy with_op_price_multiplier(const PricingPolicy& base,
                                       double factor) {
  if (factor <= 0.0)
    throw std::invalid_argument("with_op_price_multiplier: factor must be > 0");
  std::array<TierPrice, kTierCount> tiers{};
  for (StorageTier t : all_tiers()) {
    TierPrice p = base.tier(t);
    p.read_per_10k_ops *= factor;
    p.write_per_10k_ops *= factor;
    tiers[tier_index(t)] = p;
  }
  return PricingPolicy(base.name() + "-ops-x" + std::to_string(factor), tiers,
                       base.tier_change_per_gb(), base.days_per_month());
}

PricingPolicy PricingPolicy::flat_test() {
  std::array<TierPrice, kTierCount> tiers{};
  for (TierPrice& p : tiers) p = TierPrice{0.01, 0.01, 0.01, 0.001, 0.001};
  return PricingPolicy("flat-test", tiers, /*tier_change_per_gb=*/0.0);
}

}  // namespace minicost::pricing
