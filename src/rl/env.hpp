#pragma once
// The tiering environment: one episode walks one data file forward through
// the trace day by day. Each step, the agent picks the file's tier for the
// current day; the environment bills that day under the pricing policy
// (including the tier-change cost when the action moves the file) and pays
// the reward of Eq. (4). Transitions are deterministic, matching the MDP.

#include <optional>

#include "pricing/policy.hpp"
#include "rl/feature.hpp"
#include "rl/mdp.hpp"
#include "sim/cost_model.hpp"
#include "trace/trace.hpp"

namespace minicost::rl {

struct StepResult {
  std::vector<double> state;  ///< next state features (empty when done)
  double reward = 0.0;
  double cost = 0.0;  ///< dollars billed this step
  bool done = false;
};

class TieringEnv {
 public:
  /// Borrows trace and policy; both must outlive the environment.
  TieringEnv(const trace::RequestTrace& trace,
             const pricing::PricingPolicy& policy, Featurizer featurizer,
             RewardConfig reward);

  /// Starts an episode on `file` at `start_day` (defaults to the earliest
  /// day with a full history window), running until `end_day` (exclusive;
  /// defaults to trace end). Returns the initial state. Throws
  /// std::out_of_range for windows that don't fit the trace.
  std::vector<double> reset(trace::FileId file,
                            pricing::StorageTier initial_tier,
                            std::optional<std::size_t> start_day = {},
                            std::optional<std::size_t> end_day = {});

  /// Applies the action (target tier for the current day). Must not be
  /// called on a finished episode (throws std::logic_error).
  StepResult step(Action action);

  std::size_t current_day() const noexcept { return day_; }
  pricing::StorageTier current_tier() const noexcept { return tier_; }
  const Featurizer& featurizer() const noexcept { return featurizer_; }

 private:
  const trace::RequestTrace& trace_;
  const pricing::PricingPolicy& policy_;
  Featurizer featurizer_;
  RewardConfig reward_;

  trace::FileId file_ = 0;
  std::size_t day_ = 0;
  std::size_t start_day_ = 0;
  std::size_t end_day_ = 0;
  pricing::StorageTier tier_ = pricing::StorageTier::kHot;
  bool active_ = false;
};

}  // namespace minicost::rl
