// Figure 13 — "The performance with and without data file aggregation":
// cumulative cost vs days for Greedy, MiniCost, MiniCost w/E (the
// concurrent-request aggregation enhancement of Sec. 5.2) and Optimal.
//
// Evaluation uses a fresh-seed trace (held out by construction — the agent
// never saw it) rather than the 80/20 test split: random file splits shred
// co-request groups, and Figure 13 is about exactly those groups.
//
// The bench runs twice:
//   * with the literal 2020 price sheet ($ per 10,000 operations), where
//     Eq. (15)'s benefit condition essentially never holds — the honest
//     no-benefit result recorded in EXPERIMENTS.md;
//   * with per-operation-heavy prices (x500 on the op components), the
//     regime where the paper's visible w/E gap emerges. The agent for this
//     variant is trained on the op-heavy sheet too.

#include <iostream>

#include "common.hpp"
#include "core/aggregation.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/rl_policy.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"

namespace {

using namespace minicost;

void run_variant(const trace::RequestTrace& eval_trace, rl::A3CAgent& agent,
                 const pricing::PricingPolicy& prices,
                 const std::string& label) {
  const std::size_t start = benchx::eval_start(eval_trace);

  core::AggregationConfig agg_config;
  agg_config.top_psi = util::env_size("MINICOST_FIG13_PSI", 64);
  const auto evaluations =
      core::evaluate_groups(eval_trace, prices, agg_config, start);
  std::size_t selected = 0;
  for (const auto& eval : evaluations) selected += eval.selected;
  const trace::RequestTrace aggregated =
      core::apply_aggregation(eval_trace, evaluations);

  auto bill = [&](const trace::RequestTrace& tr, core::TieringPolicy& policy) {
    core::PlanOptions options;
    options.start_day = start;
    options.initial_tiers = core::static_initial_tiers(tr, prices, start);
    return core::run_policy(tr, prices, policy, options);
  };

  core::GreedyPolicy greedy;
  core::RlPolicy minicost(agent);
  core::RlPolicy minicost_e(agent);
  core::OptimalPolicy optimal;

  struct Series {
    std::string name;
    core::PlanResult result;
  };
  std::vector<Series> series;
  series.push_back({"Greedy", bill(eval_trace, greedy)});
  series.push_back({"MiniCost", bill(eval_trace, minicost)});
  series.push_back({"MiniCost w/E", bill(aggregated, minicost_e)});
  series.push_back({"Optimal", bill(eval_trace, optimal)});

  util::Table table({"policy", "7d", "14d", "21d", "28d", "35d", "35d vs opt"});
  const double optimal_total =
      series.back().result.report.grand_total().total();
  for (const Series& s : series) {
    std::vector<std::string> row{s.name};
    for (std::size_t day : {7u, 14u, 21u, 28u, 35u}) {
      const std::size_t index =
          std::min<std::size_t>(day, s.result.report.days()) - 1;
      row.push_back(
          util::format_money(s.result.report.cumulative_through(index)));
    }
    row.push_back(util::format_double(
        s.result.report.grand_total().total() / optimal_total, 4));
    table.add_row(std::move(row));
  }
  benchx::emit("fig13_" + label,
               "Figure 13 [" + prices.name() + "]: aggregated groups=" +
                   std::to_string(selected) + "/" +
                   std::to_string(eval_trace.groups().size()),
               table);
}

}  // namespace

int main() {
  using namespace minicost;
  std::cout << "fig13: MiniCost with/without data file aggregation "
               "(Figure 13)\n";
  const benchx::Workload workload = benchx::standard_workload(0.4);

  // Held-out evaluation trace with intact co-request groups.
  trace::SyntheticConfig eval_config;
  eval_config.file_count =
      std::max<std::size_t>(100, workload.full.file_count() / 5);
  eval_config.seed = workload.seed + 1;
  eval_config.grouped_file_fraction = 0.4;
  const trace::RequestTrace eval_trace = trace::generate_synthetic(eval_config);

  {
    auto agent = benchx::shared_agent(workload);
    run_variant(eval_trace, *agent, benchx::standard_pricing(), "list_prices");
  }
  {
    const pricing::PricingPolicy op_heavy =
        pricing::with_op_price_multiplier(benchx::standard_pricing(), 500.0);
    const auto episodes = util::env_size("MINICOST_FIG13_EPISODES", 40000);
    auto agent = benchx::shared_agent(workload, episodes, &op_heavy, "opx500");
    run_variant(eval_trace, *agent, op_heavy, "op_heavy");
  }
  benchx::expectation(
      "with list prices Eq. (15) selects ~no groups (aggregation can't beat "
      "the replica's storage bill) — documented deviation; with op-heavy "
      "prices MiniCost w/E lands below MiniCost and the gap grows with days, "
      "Greedy >= MiniCost > MiniCost w/E >= Optimal as in the paper");
  return 0;
}
