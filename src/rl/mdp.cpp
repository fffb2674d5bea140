#include "rl/mdp.hpp"

#include <algorithm>

namespace minicost::rl {

double reward_from_cost(double cost, double baseline_cost,
                        const RewardConfig& config) noexcept {
  switch (config.mode) {
    case RewardMode::kNegativeCost:
      return -cost / kNegativeCostScale + config.delta;
    case RewardMode::kInverseAbsolute: {
      if (cost <= 0.0) return kRewardCap + config.delta;
      return std::min(kRewardCap, config.alpha / cost) + config.delta;
    }
    case RewardMode::kInverseRelative: {
      if (cost <= 0.0) return kRewardCap + config.delta;
      const double base = baseline_cost > 0.0 ? baseline_cost : 1.0;
      return std::min(kRewardCap, config.alpha * base / cost) + config.delta;
    }
  }
  return config.delta;
}

}  // namespace minicost::rl
