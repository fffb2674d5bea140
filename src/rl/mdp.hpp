#pragma once
// The paper's MDP formulation (Sec. 4.2), M = (S, A, P, R):
//   * state  s = (F_r, F_w, D, Γ): read/write frequencies, size, tier;
//   * action a ∈ {1..Γ}: the tier for the file in the next time step;
//   * transitions are deterministic (P(s'|s,a) = 1): the assignment is
//     executed with certainty;
//   * reward R(s, a) = α / C(s, a) + Δ (Eq. 4), where C is the money cost
//     of the step (Eq. 5).

#include <cstdint>

#include "pricing/tier.hpp"

namespace minicost::rl {

/// Action = target tier index in [0, kTierCount).
using Action = std::size_t;
inline constexpr std::size_t kActionCount = pricing::kTierCount;

enum class RewardMode {
  /// Literal Eq. (4): R = α / C + Δ with a fixed α. Costs span 5+ orders of
  /// magnitude across files, so near-free files dominate the gradient —
  /// kept for the reward-shaping ablation.
  kInverseAbsolute,
  /// Eq. (4) with α normalized per state: α is scaled by the cost the file
  /// would incur in the *hot* tier that day, i.e. R = α·C_hot / C + Δ.
  /// Because the MDP is separable per file and C_hot does not depend on the
  /// action, this preserves every state's action ordering (and hence the
  /// optimal policy) while keeping rewards O(1) for every file. Default.
  kInverseRelative,
  /// R = -C / scale + Δ: exactly aligned with total-cost minimization.
  kNegativeCost,
};

struct RewardConfig {
  RewardMode mode = RewardMode::kInverseRelative;
  /// The paper's Eq. (4) parameters ("can be set manually"). The default Δ
  /// centers the default mode: a step that costs exactly the hot baseline
  /// earns 0, cheaper tiers earn positive reward — which keeps early critic
  /// targets near zero and training stable.
  double alpha = 1.0;
  double delta = -1.0;
};

/// Upper bound on the inverse modes' α / C term; keeps zero-cost steps
/// finite.
inline constexpr double kRewardCap = 5.0;
/// kNegativeCost's divisor: R = -C / kNegativeCostScale + Δ.
inline constexpr double kNegativeCostScale = 1e-4;

/// Reward for a step that cost `cost` dollars. `baseline_cost` is the
/// state's hot-tier day cost (used by kInverseRelative; pass any positive
/// value for the other modes).
double reward_from_cost(double cost, double baseline_cost,
                        const RewardConfig& config) noexcept;

}  // namespace minicost::rl
