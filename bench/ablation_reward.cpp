// Ablation — reward shaping (DESIGN.md design-choice list): compares the
// three reward formulations of rl/mdp.hpp on identical training budgets:
//   * Eq. (4) literal  (α / C + Δ with fixed α),
//   * Eq. (4) relative (α·C_hot / C + Δ — the default; optimal-policy
//     preserving, O(1) rewards per state),
//   * negative cost    (-C / scale, exactly cost-aligned).
// Reports each agent's final eval cost vs Optimal and its action rate.

#include <iostream>

#include "common.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"

int main() {
  using namespace minicost;
  std::cout << "ablation_reward: reward-shaping comparison (Eq. 4 variants)\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_ABL_FILES", 600);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices);
  const auto episodes = util::env_size("MINICOST_ABL_EPISODES", 35000);

  struct Variant {
    std::string name;
    rl::RewardConfig reward;
  };
  std::vector<Variant> variants;
  {
    rl::RewardConfig literal;
    literal.mode = rl::RewardMode::kInverseAbsolute;
    literal.alpha = 1e-5;
    literal.delta = 0.0;
    variants.push_back({"Eq.4 literal (alpha/C)", literal});

    rl::RewardConfig relative;  // library default
    variants.push_back({"Eq.4 relative (default)", relative});

    rl::RewardConfig negative;
    negative.mode = rl::RewardMode::kNegativeCost;
    negative.delta = 0.0;
    variants.push_back({"negative cost", negative});
  }

  util::Table table({"reward", "eval cost", "vs optimal", "action rate"});
  for (const Variant& variant : variants) {
    rl::A3CConfig config;
    config.reward = variant.reward;
    rl::A3CAgent agent(config, workload.seed);
    rl::TrainOptions options;
    options.episodes = episodes;
    options.report_every = episodes;
    agent.train(tr, prices, options);
    const double cost = eval.cost(agent);
    table.add_row({variant.name, util::format_money(cost),
                   util::format_double(cost / eval.optimal_cost(), 4),
                   util::format_double(eval.action_rate(agent), 3)});
    std::cout << "  " << variant.name << ": "
              << util::format_double(cost / eval.optimal_cost(), 4)
              << "x optimal\n";
  }
  benchx::emit("ablation_reward", "Reward shaping ablation", table);
  benchx::expectation(
      "the literal Eq. (4) reward lets near-free files dominate the "
      "gradient (cost ratios spanning 5 orders of magnitude); the "
      "baseline-relative form trains markedly closer to Optimal");
  return 0;
}
