// Ablation — state features (paper Sec. 4.2.1's state definition): drops
// feature blocks from the encoder and measures the trained policy's cost:
//   * full state (14-day history + write/size + tier + day-of-week + means),
//   * no day-of-week channel (the weekly cycle must be inferred raw),
//   * no summary means (boundary resolution comes only from the conv),
//   * short 7-day history (less than one request cycle).

#include <iostream>

#include "common.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"

int main() {
  using namespace minicost;
  std::cout << "ablation_features: state-feature ablation\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_ABL_FILES", 600);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices);
  const auto episodes = util::env_size("MINICOST_ABL_EPISODES", 35000);

  struct Variant {
    std::string name;
    rl::FeatureConfig features;
  };
  std::vector<Variant> variants;
  {
    rl::FeatureConfig full;
    variants.push_back({"full state", full});

    rl::FeatureConfig no_dow;
    no_dow.include_day_of_week = false;
    variants.push_back({"no day-of-week", no_dow});

    rl::FeatureConfig no_summary;
    no_summary.include_summary = false;
    variants.push_back({"no summary means", no_summary});

    rl::FeatureConfig short_history;
    short_history.history_len = 7;
    variants.push_back({"7-day history", short_history});
  }

  util::Table table({"state variant", "features", "eval cost", "vs optimal",
                     "action rate"});
  for (const Variant& variant : variants) {
    rl::A3CConfig config;
    config.features = variant.features;
    rl::A3CAgent agent(config, workload.seed);
    rl::TrainOptions options;
    options.episodes = episodes;
    options.report_every = episodes;
    agent.train(tr, prices, options);
    const double cost = eval.cost(agent);
    table.add_row({variant.name,
                   util::format_count(agent.featurizer().feature_count()),
                   util::format_money(cost),
                   util::format_double(cost / eval.optimal_cost(), 4),
                   util::format_double(eval.action_rate(agent), 3)});
    std::cout << "  " << variant.name << ": "
              << util::format_double(cost / eval.optimal_cost(), 4)
              << "x optimal\n";
  }
  benchx::emit("ablation_features", "State-feature ablation", table);
  benchx::expectation(
      "the full state trains closest to Optimal; removing the summary means "
      "or shortening the history below one weekly cycle costs accuracy on "
      "the tier-boundary files");
  return 0;
}
