#include "core/optimal.hpp"

#include <limits>
#include <stdexcept>

#include "sim/cost_model.hpp"

namespace minicost::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

OptimalSequence optimal_sequence(const pricing::PricingPolicy& pricing,
                                 const trace::FileRecord& file,
                                 std::size_t start_day, std::size_t end_day,
                                 pricing::StorageTier initial,
                                 bool charge_initial) {
  if (start_day >= end_day || end_day > file.reads.size())
    throw std::invalid_argument("optimal_sequence: bad day window");
  const std::size_t days = end_day - start_day;
  constexpr std::size_t kT = pricing::kTierCount;

  // dp[t][j]: cheapest cost of days [start, start+t] ending in tier j.
  std::vector<std::array<double, kT>> dp(days);
  std::vector<std::array<std::uint8_t, kT>> parent(days);

  for (std::size_t j = 0; j < kT; ++j) {
    const auto tier = pricing::tier_from_index(j);
    double cost = sim::file_day_cost_no_change(pricing, tier,
                                               file.reads[start_day],
                                               file.writes[start_day],
                                               file.size_gb)
                      .total();
    if (charge_initial) cost += pricing.change_cost(initial, tier, file.size_gb);
    dp[0][j] = cost;
    parent[0][j] = 0;
  }

  for (std::size_t t = 1; t < days; ++t) {
    const std::size_t day = start_day + t;
    for (std::size_t j = 0; j < kT; ++j) {
      const auto tier = pricing::tier_from_index(j);
      const double base = sim::file_day_cost_no_change(
                              pricing, tier, file.reads[day], file.writes[day],
                              file.size_gb)
                              .total();
      double best = kInf;
      std::uint8_t best_parent = 0;
      for (std::size_t i = 0; i < kT; ++i) {
        const double candidate =
            dp[t - 1][i] +
            pricing.change_cost(pricing::tier_from_index(i), tier, file.size_gb);
        if (candidate < best) {
          best = candidate;
          best_parent = static_cast<std::uint8_t>(i);
        }
      }
      dp[t][j] = best + base;
      parent[t][j] = best_parent;
    }
  }

  // Backtrack from the cheapest terminal tier.
  OptimalSequence result;
  result.tiers.resize(days);
  std::size_t j = 0;
  result.cost = kInf;
  for (std::size_t k = 0; k < kT; ++k) {
    if (dp[days - 1][k] < result.cost) {
      result.cost = dp[days - 1][k];
      j = k;
    }
  }
  for (std::size_t t = days; t-- > 0;) {
    result.tiers[t] = pricing::tier_from_index(j);
    j = parent[t][j];
  }
  return result;
}

OptimalSequence exhaustive_sequence(const pricing::PricingPolicy& pricing,
                                    const trace::FileRecord& file,
                                    std::size_t start_day, std::size_t end_day,
                                    pricing::StorageTier initial,
                                    bool charge_initial) {
  if (start_day >= end_day || end_day > file.reads.size())
    throw std::invalid_argument("exhaustive_sequence: bad day window");
  const std::size_t days = end_day - start_day;
  if (days > 12)
    throw std::invalid_argument(
        "exhaustive_sequence: window too long for brute force");
  constexpr std::size_t kT = pricing::kTierCount;

  std::size_t combos = 1;
  for (std::size_t t = 0; t < days; ++t) combos *= kT;

  OptimalSequence best;
  best.cost = kInf;
  std::vector<pricing::StorageTier> tiers(days);
  for (std::size_t code = 0; code < combos; ++code) {
    std::size_t rest = code;
    for (std::size_t t = 0; t < days; ++t) {
      tiers[t] = pricing::tier_from_index(rest % kT);
      rest /= kT;
    }
    double cost = 0.0;
    pricing::StorageTier previous = initial;
    for (std::size_t t = 0; t < days; ++t) {
      const std::size_t day = start_day + t;
      cost += sim::file_day_cost_no_change(pricing, tiers[t], file.reads[day],
                                           file.writes[day], file.size_gb)
                  .total();
      if (tiers[t] != previous && (t > 0 || charge_initial))
        cost += pricing.change_cost(previous, tiers[t], file.size_gb);
      previous = tiers[t];
    }
    if (cost < best.cost) {
      best.cost = cost;
      best.tiers = tiers;
    }
  }
  return best;
}

void OptimalPolicy::prepare(const PlanContext& context) {
  start_day_ = context.start_day;
  const std::size_t n = context.trace.file_count();
  sequences_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i)
    sequences_[i] =
        optimal_sequence(context.pricing,
                         context.trace.file(static_cast<trace::FileId>(i)),
                         context.start_day, context.end_day,
                         context.initial_tiers[i], charge_initial_)
            .tiers;
}

void OptimalPolicy::decide_day(const PlanContext& context, std::size_t day,
                               std::span<const pricing::StorageTier> current,
                               std::span<pricing::StorageTier> out_plan) {
  check_batch_widths(context, current, out_plan);
  for (std::size_t i = 0; i < out_plan.size(); ++i) {
    const auto& seq = sequences_.at(i);
    if (day < start_day_ || day - start_day_ >= seq.size())
      throw std::out_of_range(
          "OptimalPolicy::decide_day: day outside prepared window");
    out_plan[i] = seq[day - start_day_];
  }
}

}  // namespace minicost::core
