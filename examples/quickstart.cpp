// Quickstart: the MiniCost pipeline in ~60 lines.
//
//   1. Generate a Wikipedia-like workload trace (or load your own).
//   2. Split it 80/20 into training and test file sets (paper Sec. 6.1).
//   3. Train the A3C agent on the training files.
//   4. Evaluate all policies (Hot / Cold / Greedy / MiniCost / Optimal)
//      on the test files and print the cost comparison.
//
// Run:  ./quickstart [--files 1500] [--episodes 20000] [--seed 42]

#include <iostream>
#include <stdexcept>

#include "core/minicost_system.hpp"
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
  core::MiniCostConfig config;
  try {
    workload.file_count = cli.size("files");
    workload.seed = cli.size("seed");
    config.train_episodes = cli.size("episodes");
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

  // 3. MiniCost system (Azure-like prices, paper-default agent).
  config.seed = workload.seed;
  core::MiniCostSystem system(config);

  std::cout << "training A3C agent (" << config.train_episodes
            << " episodes)...\n";
  rl::TrainOptions train_options;
  train_options.episodes = config.train_episodes;
  train_options.report_every = config.train_episodes / 4;
  train_options.on_progress = [](const rl::TrainProgress& p) {
    std::cout << "  episodes=" << p.episodes_done << " steps=" << p.env_steps
              << " mean reward=" << util::format_double(p.mean_reward, 3)
              << "\n";
  };
  system.train(train, train_options);

  // 4. Evaluate the last 35 days of the test files.
  const std::size_t start = test.days() - 35;
  core::EvaluationReport report = system.evaluate(test, start, test.days());

  util::Table table({"policy", "total cost", "vs optimal", "optimal-action rate"});
  const double optimal = report.outcomes.at("Optimal").total_cost;
  for (const char* name : {"Cold", "Hot", "Greedy", "MiniCost", "Optimal"}) {
    const auto& outcome = report.outcomes.at(name);
    table.add_row({name, util::format_money(outcome.total_cost),
                   util::format_double(outcome.total_cost / optimal, 4),
                   util::format_double(outcome.optimal_action_rate, 3)});
  }
  std::cout << "\n35-day bill for " << test.file_count() << " test files ("
            << config.pricing.name() << "):\n"
            << table.to_string();
  return 0;
}
