#include "core/forecast_policy.hpp"

#include <gtest/gtest.h>

#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "decide_one.hpp"
#include "forecast/seasonal_naive.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

trace::RequestTrace make_trace(std::size_t files = 200) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 71;
  return trace::generate_synthetic(config);
}

TEST(ForecastMpcTest, RejectsBadConfig) {
  ForecastMpcConfig config;
  config.replan_every = 0;
  EXPECT_THROW(ForecastMpcPolicy{config}, std::invalid_argument);
  config = ForecastMpcConfig{};
  config.horizon = 0;
  EXPECT_THROW(ForecastMpcPolicy{config}, std::invalid_argument);
}

TEST(ForecastMpcTest, StaysPutBeforeMinHistory) {
  const trace::RequestTrace tr = make_trace(10);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> initial(10,
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, tr.days(), initial};
  ForecastMpcPolicy policy;
  policy.prepare(context);
  EXPECT_EQ(decide_one(policy, context, 0, 3, pricing::StorageTier::kCool),
            pricing::StorageTier::kCool);
}

TEST(ForecastMpcTest, RunsEndToEndAndBeatsWorstStatic) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  PlanOptions options;
  options.start_day = 27;
  options.initial_tiers = static_initial_tiers(tr, azure, 27);

  ForecastMpcPolicy mpc;
  const double mpc_cost =
      run_policy(tr, azure, mpc, options).report.grand_total().total();

  auto cold = make_cold_policy();
  const double cold_cost =
      run_policy(tr, azure, *cold, options).report.grand_total().total();
  OptimalPolicy optimal;
  const double optimal_cost =
      run_policy(tr, azure, optimal, options).report.grand_total().total();

  EXPECT_LT(mpc_cost, cold_cost);
  EXPECT_GE(mpc_cost, optimal_cost - 1e-9);
}

TEST(ForecastMpcTest, PerfectlyPeriodicWorkloadIsNearOptimal) {
  // Seasonal-naive forecasts are exact on an exactly weekly-periodic file,
  // so MPC should match Optimal's cost within the re-plan boundary effects.
  std::vector<trace::FileRecord> files;
  trace::FileRecord f;
  f.name = "periodic";
  f.size_gb = 0.1;
  f.reads.resize(63);
  f.writes.assign(63, 0.05);
  for (std::size_t t = 0; t < 63; ++t) {
    // 5 quiet days, 2 busy days each week; amplitude spans the crossover.
    f.reads[t] = (t % 7 < 5) ? 0.05 : 25.0;
  }
  files.push_back(f);
  const trace::RequestTrace tr(63, std::move(files));
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();

  PlanOptions options;
  options.start_day = 21;
  options.initial_tiers = {pricing::StorageTier::kCool};

  ForecastMpcPolicy mpc;
  OptimalPolicy optimal;
  const double mpc_cost =
      run_policy(tr, azure, mpc, options).report.grand_total().total();
  const double optimal_cost =
      run_policy(tr, azure, optimal, options).report.grand_total().total();
  EXPECT_LT(mpc_cost, optimal_cost * 1.10);
}

TEST(ForecastMpcTest, CustomForecasterFactoryIsUsed) {
  const trace::RequestTrace tr = make_trace(20);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  PlanOptions options;
  options.start_day = 27;

  int factory_calls = 0;
  ForecastMpcConfig config;
  config.make_forecaster = [&factory_calls]() {
    ++factory_calls;
    return std::make_unique<forecast::SeasonalNaive>(7);
  };
  ForecastMpcPolicy mpc(config);
  run_policy(tr, azure, mpc, options);
  EXPECT_GT(factory_calls, 0);
}

TEST(ForecastMpcTest, BatchedPlanMatchesScalarPlan) {
  // MPC keeps per-file plan state, so the sharded decide_day (over 256
  // files, on a 4-thread pool) must land on exactly the plan each file gets
  // when it is planned alone, on a trace holding just that file.
  const trace::RequestTrace tr = make_trace(300);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool pool(4);
  PlanOptions options;
  options.start_day = 15;
  options.initial_tiers = static_initial_tiers(tr, azure, options.start_day);
  options.pool = &pool;
  ForecastMpcPolicy batched;
  const sim::HorizonPlan plan = run_policy(tr, azure, batched, options).plan;

  for (trace::FileId f = 0; f < tr.file_count(); ++f) {
    const trace::RequestTrace alone(tr.days(), {tr.file(f)});
    PlanOptions single = options;
    single.initial_tiers = {options.initial_tiers[f]};
    ForecastMpcPolicy scalar;
    const sim::HorizonPlan reference =
        run_policy(alone, azure, scalar, single).plan;
    ASSERT_EQ(reference.size(), plan.size());
    for (std::size_t t = 0; t < plan.size(); ++t)
      EXPECT_EQ(plan[t][f], reference[t][0]) << "file " << f << " day " << t;
  }
}

}  // namespace
}  // namespace minicost::core
