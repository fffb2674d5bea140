// The paper's evaluation protocol (Sec. 6.1) at test scale, shared by the
// pipeline and determinism suites: train A3C on an 80% split, then bill
// Hot, Cold, Greedy, MiniCost and Optimal over one window with run_policy,
// plus MiniCost on the aggregated workload ("MiniCost w/E").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/aggregation.hpp"
#include "core/greedy.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::evaluation {

constexpr std::size_t kDays = 62;
constexpr std::size_t kStart = 27;
constexpr std::uint64_t kSeed = 51;

inline trace::RequestTrace make_trace() {
  trace::SyntheticConfig tc;
  tc.file_count = 80;
  tc.days = kDays;
  tc.seed = 47;
  return trace::generate_synthetic(tc);
}

inline rl::A3CConfig agent_config() {
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  return config;
}

/// Trains `agent` on the 80% training split of `tr`.
inline void train(rl::A3CAgent& agent, const trace::RequestTrace& tr) {
  rl::TrainOptions options;
  options.episodes = 400;
  options.report_every = 400;
  agent.train(tr.split(0.8, kSeed).first,
              pricing::PricingPolicy::azure_2020(), options);
}

struct Outcome {
  core::PlanResult result;
  double optimal_action_rate = 0.0;  ///< agreement with Optimal's plan
};

/// Bills every policy over days [start_day, end_day) of `tr`, each from its
/// static initial placement, with the runs fanned out on `pool`. Keyed by
/// policy name. "MiniCost w/E" bills a wider workload, so its rate is 0.
inline std::map<std::string, Outcome> run_policies(
    const trace::RequestTrace& tr, rl::A3CAgent& agent, std::size_t start_day,
    std::size_t end_day, util::ThreadPool& pool) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  core::PlanOptions options;
  options.start_day = start_day;
  options.end_day = end_day;
  options.initial_tiers = core::static_initial_tiers(tr, azure, start_day);
  options.pool = &pool;
  const trace::RequestTrace aggregated = core::apply_aggregation(
      tr, core::evaluate_groups(tr, azure, core::AggregationConfig{},
                                start_day));
  core::PlanOptions agg_options = options;
  agg_options.initial_tiers =
      core::static_initial_tiers(aggregated, azure, start_day);

  // Index 0 is Optimal, the reference for every other rate.
  const std::vector<std::function<core::PlanResult()>> runs = {
      [&] {
        core::OptimalPolicy p;
        return core::run_policy(tr, azure, p, options);
      },
      [&] {
        return core::run_policy(tr, azure, *core::make_hot_policy(), options);
      },
      [&] {
        return core::run_policy(tr, azure, *core::make_cold_policy(), options);
      },
      [&] {
        core::GreedyPolicy p;
        return core::run_policy(tr, azure, p, options);
      },
      [&] {
        core::RlPolicy p(agent);
        return core::run_policy(tr, azure, p, options);
      },
      [&] {
        core::RlPolicy p(agent);
        core::PlanResult result =
            core::run_policy(aggregated, azure, p, agg_options);
        result.policy_name = "MiniCost w/E";
        return result;
      },
  };
  std::vector<core::PlanResult> results(runs.size());
  pool.parallel_for(0, runs.size(),
                    [&](std::size_t i) { results[i] = runs[i](); });
  std::map<std::string, Outcome> outcomes;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const double rate =
        i + 1 < results.size()
            ? core::action_agreement(results[i].plan, results[0].plan)
            : 0.0;
    outcomes.emplace(results[i].policy_name, Outcome{results[i], rate});
  }
  return outcomes;
}

}  // namespace minicost::evaluation
