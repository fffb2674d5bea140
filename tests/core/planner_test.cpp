#include "core/planner.hpp"

#include <gtest/gtest.h>

#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/rl_policy.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

using pricing::StorageTier;

trace::RequestTrace make_trace(std::size_t files = 100) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 40;
  config.seed = 29;
  return trace::generate_synthetic(config);
}

TEST(RunPolicyTest, PlanCoversWindowExactly) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 14;
  options.end_day = 34;
  const PlanResult result = run_policy(tr, azure, *hot, options);
  EXPECT_EQ(result.plan.size(), 20u);
  EXPECT_EQ(result.plan[0].size(), tr.file_count());
  EXPECT_EQ(result.report.days(), 20u);
  EXPECT_GT(result.decision_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.decide_ns_per_file_day,
                   result.decision_seconds * 1e9 /
                       static_cast<double>(tr.file_count() * 20));
  EXPECT_EQ(result.policy_name, "Hot");
}

TEST(RunPolicyTest, DefaultEndIsTraceEnd) {
  const trace::RequestTrace tr = make_trace(20);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 10;
  const PlanResult result = run_policy(tr, azure, *hot, options);
  EXPECT_EQ(result.plan.size(), 30u);
}

TEST(RunPolicyTest, RejectsBadWindows) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 40;
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
  options.start_day = 10;
  options.end_day = 99;
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
}

TEST(RunPolicyTest, RejectsInitialTiersWidthMismatch) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  PlanOptions options;
  options.start_day = 5;
  options.initial_tiers.assign(3, StorageTier::kHot);
  EXPECT_THROW(run_policy(tr, azure, *hot, options), std::invalid_argument);
}

TEST(RunPolicyTest, OptimalBilledCostMatchesPlannedCost) {
  // End-to-end consistency: the per-file DP costs, summed over every file,
  // equal the simulator's independent billing of the produced plan.
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  OptimalPolicy optimal;
  PlanOptions options;
  options.start_day = 14;
  options.initial_tiers = static_initial_tiers(tr, azure, 14);
  const PlanResult result = run_policy(tr, azure, optimal, options);
  double planned = 0.0;
  for (trace::FileId f = 0; f < tr.file_count(); ++f)
    planned += optimal_sequence(azure, tr.file(f), 14, tr.days(),
                                options.initial_tiers[f])
                   .cost;
  EXPECT_NEAR(result.report.grand_total().total(), planned, 1e-9);
}

TEST(RunPolicyTest, OptimalNeverCostsMoreThanAnyOtherPolicy) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  PlanOptions options;
  options.start_day = 14;
  options.initial_tiers = static_initial_tiers(tr, azure, 14);

  OptimalPolicy optimal;
  const double opt = run_policy(tr, azure, optimal, options)
                         .report.grand_total()
                         .total();
  auto hot = make_hot_policy();
  auto cold = make_cold_policy();
  GreedyPolicy greedy;
  for (TieringPolicy* policy :
       std::initializer_list<TieringPolicy*>{hot.get(), cold.get(), &greedy}) {
    const double cost =
        run_policy(tr, azure, *policy, options).report.grand_total().total();
    EXPECT_GE(cost, opt - 1e-9) << policy->name();
  }
}

// run_policy bills each day right after deciding it, reading the full
// trace at the window's days. The bill must be the bytes of simulating the
// finished plan over a copy of the window, for a window that ends before the
// trace does and at every pool size.
TEST(RunPolicyTest, InLoopBillMatchesSimulatingTheWindowCopy) {
  const trace::RequestTrace tr = make_trace(1100);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  PlanOptions options;
  options.start_day = 14;
  options.end_day = 31;
  options.initial_tiers = static_initial_tiers(tr, azure, 14);
  ASSERT_LT(options.end_day, tr.days());

  rl::A3CConfig agent_config;
  agent_config.filters = 8;
  agent_config.hidden = 8;
  agent_config.workers = 1;
  rl::A3CAgent agent(agent_config, 11);
  auto hot = make_hot_policy();
  GreedyPolicy greedy;
  OptimalPolicy optimal;
  RlPolicy rl_policy(agent);

  util::ThreadPool one(1), four(4);
  for (TieringPolicy* policy : std::initializer_list<TieringPolicy*>{
           hot.get(), &greedy, &optimal, &rl_policy}) {
    for (util::ThreadPool* pool : {&one, &four}) {
      options.pool = pool;
      const PlanResult result = run_policy(tr, azure, *policy, options);
      sim::SimulatorOptions oracle_options;
      oracle_options.initial_tiers = options.initial_tiers;
      oracle_options.charge_initial_placement = true;
      const sim::BillingReport oracle = sim::simulate(
          tr.window(options.start_day, options.end_day - options.start_day),
          azure, result.plan, oracle_options);
      EXPECT_TRUE(sim::bitwise_equal(result.report, oracle))
          << policy->name() << " pool " << pool->size();
    }
  }
}

TEST(StaticInitialTiersTest, TwoTierDefaultAvoidsArchive) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers = static_initial_tiers(tr, azure, 14);
  ASSERT_EQ(tiers.size(), tr.file_count());
  for (StorageTier t : tiers) EXPECT_NE(t, StorageTier::kArchive);
}

TEST(StaticInitialTiersTest, ThreeTierVariantUsesArchive) {
  const trace::RequestTrace tr = make_trace(400);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers =
      static_initial_tiers(tr, azure, 14, /*include_archive=*/true);
  bool any_archive = false;
  for (StorageTier t : tiers) any_archive |= t == StorageTier::kArchive;
  EXPECT_TRUE(any_archive);  // most synthetic files are near-dead
}

TEST(StaticInitialTiersTest, PopularFilesLandInHot) {
  const trace::RequestTrace tr = make_trace(400);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const auto tiers = static_initial_tiers(tr, azure, 14);
  // The most popular file must be hot.
  trace::FileId popular = 0;
  double best = 0.0;
  for (trace::FileId i = 0; i < tr.file_count(); ++i) {
    double mean = 0.0;
    for (std::size_t t = 0; t < 14; ++t) mean += tr.reads(i, t);
    if (mean > best) {
      best = mean;
      popular = i;
    }
  }
  EXPECT_EQ(tiers[popular], StorageTier::kHot);
}

TEST(StaticInitialTiersTest, RejectsBadWindow) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  EXPECT_THROW(static_initial_tiers(tr, azure, 0), std::invalid_argument);
  EXPECT_THROW(static_initial_tiers(tr, azure, 99), std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
