// Ablation — planner families: on one workload, compares every decision
// engine in the repository against the Optimal lower bound:
//   static baselines (Hot / Cold / per-file static),
//   Greedy (2-tier, yesterday-informed) and its 3-tier / oracle variants,
//   Forecast-MPC (seasonal-naive forecasts + exact DP over the forecast),
//   and the A3C agent (the paper's MiniCost).

#include <iostream>

#include "common.hpp"
#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace minicost;
  std::cout << "ablation_planner: every decision engine vs Optimal\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_ABL_FILES", 600);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices, /*window=*/35);
  const auto episodes = util::env_size("MINICOST_ABL_EPISODES", 35000);

  core::PlanOptions options;
  options.start_day = tr.days() - 35;
  options.initial_tiers =
      core::static_initial_tiers(tr, prices, options.start_day);

  util::Table table({"planner", "35d cost", "vs optimal", "prep+train s"});
  auto report = [&](core::TieringPolicy& policy, double train_seconds) {
    util::Stopwatch watch;
    const double cost = core::run_policy(tr, prices, policy, options)
                            .report.grand_total()
                            .total();
    table.add_row({policy.name(), util::format_money(cost),
                   util::format_double(cost / eval.optimal_cost(), 4),
                   util::format_double(train_seconds + watch.seconds(), 1)});
    std::cout << "  " << policy.name() << ": "
              << util::format_double(cost / eval.optimal_cost(), 4)
              << "x optimal\n";
  };

  {
    auto hot = core::make_hot_policy();
    report(*hot, 0.0);
    auto cold = core::make_cold_policy();
    report(*cold, 0.0);
  }
  {
    core::GreedyPolicy greedy;
    report(greedy, 0.0);
    core::GreedyPolicy greedy3(/*include_archive=*/true);
    report(greedy3, 0.0);
    core::ClairvoyantGreedyPolicy oracle;
    report(oracle, 0.0);
  }
  {
    core::ForecastMpcPolicy mpc;
    report(mpc, 0.0);
  }
  {
    util::Stopwatch watch;
    rl::A3CConfig config;
    rl::A3CAgent a3c(config, workload.seed);
    rl::TrainOptions train;
    train.episodes = episodes;
    train.report_every = episodes;
    a3c.train(tr, prices, train);
    core::RlPolicy policy(a3c);
    report(policy, watch.seconds());
  }
  {
    core::OptimalPolicy optimal;
    report(optimal, 0.0);
  }

  benchx::emit("ablation_planner", "Planner-family comparison", table);
  benchx::expectation(
      "Optimal = 1.0 by definition; MiniCost (A3C) beats every greedy "
      "variant. Notably, Forecast-MPC — a predict-then-optimize baseline "
      "the paper never evaluates — is near-optimal here: the workload's "
      "weekly cycle makes most files forecastable (its edge shrinks "
      "exactly where Fig. 4 says forecasts fail).");
  return 0;
}
