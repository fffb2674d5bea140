#include "core/rl_policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace minicost::core {

pricing::StorageTier RlPolicy::decide(const PlanContext& context,
                                      trace::FileId file, std::size_t day,
                                      pricing::StorageTier current) {
  const trace::FileRecord& f = context.trace.file(file);
  const std::size_t h = agent_.featurizer().history_len();
  if (day < h) return current;  // not enough history yet: stay put
  agent_.featurizer().encode_into(f, day, current, scratch_);
  const rl::Action action = agent_.act(scratch_, greedy_);
  return pricing::tier_from_index(action);
}

void RlPolicy::decide_day(const PlanContext& context, std::size_t day,
                          std::span<const pricing::StorageTier> current,
                          std::span<pricing::StorageTier> out_plan) {
  if (current.size() != context.trace.file_count() ||
      out_plan.size() != context.trace.file_count())
    throw std::invalid_argument("decide_day: span width != file count");
  if (day < agent_.featurizer().history_len()) {
    std::copy(current.begin(), current.end(), out_plan.begin());
    return;
  }
  const std::vector<rl::Action> actions = agent_.act_batch(
      context.trace.files(), day, current, greedy_, &plan_pool(context));
  for (std::size_t i = 0; i < actions.size(); ++i)
    out_plan[i] = pricing::tier_from_index(actions[i]);
}

namespace {

/// RlPolicy plus the agent it decides with, bundled for callers (the CLI)
/// that have no externally-owned agent.
class OwningRlPolicy final : public TieringPolicy {
 public:
  explicit OwningRlPolicy(const RlPolicyOptions& options)
      : agent_(options.agent, options.seed), inner_(agent_, options.greedy) {
    if (!options.checkpoint.empty()) agent_.load(options.checkpoint);
  }

  std::string name() const override { return inner_.name(); }
  Knowledge knowledge() const noexcept override { return inner_.knowledge(); }
  void prepare(const PlanContext& context) override { inner_.prepare(context); }
  pricing::StorageTier decide(const PlanContext& context, trace::FileId file,
                              std::size_t day,
                              pricing::StorageTier current) override {
    return inner_.decide(context, file, day, current);
  }
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override {
    inner_.decide_day(context, day, current, out_plan);
  }

 private:
  rl::A3CAgent agent_;
  RlPolicy inner_;
};

}  // namespace

std::unique_ptr<TieringPolicy> make_rl_policy(const RlPolicyOptions& options) {
  return std::make_unique<OwningRlPolicy>(options);
}

}  // namespace minicost::core
