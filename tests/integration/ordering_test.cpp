// The paper's headline orderings (Figures 7/8), asserted as invariants on a
// randomized mid-size workload: Cold > Hot > Greedy > Optimal on total cost,
// in every run. (The RL agent's position is validated by the fig07 bench,
// not here — training at full quality is too slow for a unit suite.)
#include <gtest/gtest.h>

#include <algorithm>

#include "core/greedy.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "trace/analysis.hpp"
#include "trace/synthetic.hpp"

namespace minicost::core {
namespace {

struct Totals {
  double hot, cold, greedy, optimal;
};

Totals run_all(std::uint64_t seed) {
  trace::SyntheticConfig config;
  config.file_count = 1500;
  config.days = 62;
  config.seed = seed;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();

  PlanOptions options;
  options.start_day = 27;
  options.end_day = 62;
  options.initial_tiers = static_initial_tiers(tr, azure, 27);

  auto hot = make_hot_policy();
  auto cold = make_cold_policy();
  GreedyPolicy greedy;
  OptimalPolicy optimal;
  return Totals{
      run_policy(tr, azure, *hot, options).report.grand_total().total(),
      run_policy(tr, azure, *cold, options).report.grand_total().total(),
      run_policy(tr, azure, greedy, options).report.grand_total().total(),
      run_policy(tr, azure, optimal, options).report.grand_total().total(),
  };
}

class OrderingInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingInvariant, ColdAboveHotAboveGreedyAboveOptimal) {
  const Totals totals = run_all(GetParam());
  EXPECT_GT(totals.cold, totals.hot);
  EXPECT_GT(totals.hot, totals.greedy);
  EXPECT_GT(totals.greedy, totals.optimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingInvariant,
                         ::testing::Values(42u, 7u, 123u));

TEST(OrderingTest, PerBucketCostsKeepTheOrdering) {
  // Figure 8: the ordering holds within every variability bucket too.
  trace::SyntheticConfig config;
  config.file_count = 2000;
  config.days = 62;
  config.seed = 42;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::VariabilityAnalysis analysis = trace::analyze_variability(tr);

  PlanOptions options;
  options.start_day = 27;
  options.end_day = 62;
  options.initial_tiers = static_initial_tiers(tr, azure, 27);

  auto cold = make_cold_policy();
  OptimalPolicy optimal;
  const auto cold_buckets = cost_by_variability(
      analysis, run_policy(tr, azure, *cold, options));
  const auto optimal_buckets = cost_by_variability(
      analysis, run_policy(tr, azure, optimal, options));
  for (std::size_t b = 0; b < cold_buckets.size(); ++b) {
    if (cold_buckets[b].files == 0) continue;
    EXPECT_GE(cold_buckets[b].total_cost, optimal_buckets[b].total_cost)
        << "bucket " << cold_buckets[b].label;
  }
}

TEST(OrderingTest, HigherVariabilityBucketsSaveMorePerFile) {
  // Figure 3's shape: per-file savings of Optimal vs the best static
  // two-tier assignment grow with the variability bucket.
  trace::SyntheticConfig config;
  config.file_count = 4000;
  config.days = 62;
  config.seed = 42;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::VariabilityAnalysis analysis = trace::analyze_variability(tr);

  PlanOptions options;
  options.start_day = 27;
  options.end_day = 62;
  // Per-file best *static* tier (all three tiers): pinning to it isolates
  // the value of dynamic re-tiering, which is what grows with variability.
  options.initial_tiers =
      static_initial_tiers(tr, azure, 27, /*include_archive=*/true);

  // Baseline: every file pinned to its initial static-best tier.
  class PinnedPolicy final : public TieringPolicy {
   public:
    std::string name() const override { return "Pinned"; }
    Knowledge knowledge() const noexcept override { return Knowledge::kNone; }
    void decide_day(const PlanContext& context, std::size_t,
                    std::span<const pricing::StorageTier> current,
                    std::span<pricing::StorageTier> out_plan) override {
      check_batch_widths(context, current, out_plan);
      std::copy(current.begin(), current.end(), out_plan.begin());
    }
  };
  PinnedPolicy pinned;
  OptimalPolicy optimal;
  const auto pinned_buckets =
      cost_by_variability(analysis, run_policy(tr, azure, pinned, options));
  const auto optimal_buckets =
      cost_by_variability(analysis, run_policy(tr, azure, optimal, options));

  auto saving_per_file = [&](std::size_t b) {
    if (pinned_buckets[b].files == 0) return 0.0;
    return (pinned_buckets[b].total_cost - optimal_buckets[b].total_cost) /
           static_cast<double>(pinned_buckets[b].files);
  };
  // Top bucket (flash crowds) saves more per file than the stationary one.
  EXPECT_GT(saving_per_file(4), saving_per_file(0));
}

}  // namespace
}  // namespace minicost::core
