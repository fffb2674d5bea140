#include "core/rl_policy.hpp"

#include <algorithm>
#include <vector>

namespace minicost::core {

RlPolicy::RlPolicy(const RlPolicyOptions& options)
    : owned_(std::make_unique<rl::A3CAgent>(options.agent, options.seed)),
      agent_(*owned_),
      greedy_(options.greedy) {
  if (!options.checkpoint.empty()) agent_.load(options.checkpoint);
}

void RlPolicy::decide_day(const PlanContext& context, std::size_t day,
                          std::span<const pricing::StorageTier> current,
                          std::span<pricing::StorageTier> out_plan) {
  check_batch_widths(context, current, out_plan);
  if (day < agent_.featurizer().history_len()) {
    std::copy(current.begin(), current.end(), out_plan.begin());
    return;
  }
  const std::vector<rl::Action> actions = agent_.act_batch(
      context.trace.files(), day, current, greedy_, &plan_pool(context));
  for (std::size_t i = 0; i < actions.size(); ++i)
    out_plan[i] = pricing::tier_from_index(actions[i]);
}

std::unique_ptr<TieringPolicy> make_rl_policy(const RlPolicyOptions& options) {
  return std::make_unique<RlPolicy>(options);
}

}  // namespace minicost::core
