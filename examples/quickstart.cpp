// Quickstart: the MiniCost pipeline in ~80 lines.
//
//   1. Generate a Wikipedia-like workload trace (or load your own).
//   2. Split it 80/20 into training and test file sets (paper Sec. 6.1).
//   3. Train the A3C agent on the training files.
//   4. Evaluate all policies (Hot / Cold / Greedy / MiniCost / Optimal)
//      on the test files and print the cost comparison.
//
// Run:  ./quickstart [--files 1500] [--episodes 20000] [--seed 42]

#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/greedy.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace minicost;

  util::Cli cli("quickstart", "MiniCost end-to-end quickstart");
  cli.add_flag("files", "1500", "number of data files in the workload");
  cli.add_flag("episodes", "40000", "A3C training episodes");
  cli.add_flag("seed", "42", "experiment seed");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig workload;
  rl::TrainOptions train_options;
  try {
    workload.file_count = cli.size("files");
    workload.seed = cli.size("seed");
    train_options.episodes = cli.size("episodes");
  } catch (const std::invalid_argument& error) {
    std::cerr << "quickstart: " << error.what() << "\n";
    return 1;
  }

  // 1. Workload.
  const trace::RequestTrace full_trace = trace::generate_synthetic(workload);
  std::cout << "workload: " << full_trace.file_count() << " files, "
            << full_trace.days() << " days, "
            << util::format_double(full_trace.total_size_gb(), 1)
            << " GB under management\n";

  // 2. Train/test split.
  const auto [train, test] = full_trace.split(0.8, workload.seed);

  // 3. Train the paper-default agent on Azure-like prices.
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent(rl::A3CConfig{}, workload.seed);
  std::cout << "training A3C agent (" << train_options.episodes
            << " episodes)...\n";
  train_options.report_every = train_options.episodes / 4;
  train_options.on_progress = [](const rl::TrainProgress& p) {
    std::cout << "  episodes=" << p.episodes_done << " steps=" << p.env_steps
              << " mean reward=" << util::format_double(p.mean_reward, 3)
              << "\n";
  };
  agent.train(train, prices, train_options);

  // 4. Bill every policy over the last 35 days of the test files, each
  //    starting from the customer's static hot/cool placement.
  core::PlanOptions options;
  options.start_day = test.days() - 35;
  options.initial_tiers =
      core::static_initial_tiers(test, prices, options.start_day);

  auto hot = core::make_hot_policy();
  auto cold = core::make_cold_policy();
  core::GreedyPolicy greedy;
  core::RlPolicy minicost(agent);
  core::OptimalPolicy optimal;
  const core::PlanResult best = core::run_policy(test, prices, optimal, options);
  const double optimal_total = best.report.grand_total().total();

  util::Table table({"policy", "total cost", "vs optimal", "optimal-action rate"});
  const std::vector<core::TieringPolicy*> policies{cold.get(), hot.get(),
                                                   &greedy, &minicost};
  for (core::TieringPolicy* policy : policies) {
    const core::PlanResult result = core::run_policy(test, prices, *policy, options);
    const double total = result.report.grand_total().total();
    table.add_row({result.policy_name, util::format_money(total),
                   util::format_double(total / optimal_total, 4),
                   util::format_double(
                       core::action_agreement(result.plan, best.plan), 3)});
  }
  table.add_row({best.policy_name, util::format_money(optimal_total),
                 util::format_double(1.0, 4), util::format_double(1.0, 3)});
  std::cout << "\n35-day bill for " << test.file_count() << " test files ("
            << prices.name() << "):\n"
            << table.to_string();
  return 0;
}
