#pragma once
// The paper's Optimal baseline (Sec. 6.1): the "offline-brutal-force method"
// that, knowing every future request frequency, picks the cheapest tier
// sequence for every file — the lower bound for all online methods.
//
// Because the total cost (Eq. 5) is separable across files, the joint
// Γ^(N·T) search decomposes into N independent per-file minimizations, each
// solved *exactly* by dynamic programming over (day, tier) in O(T·Γ²):
//   dp[t][j] = day_cost(t, j) + min_i ( dp[t-1][i] + change_cost(i, j) ).
// exhaustive_sequence() enumerates all Γ^T sequences and is used by the
// property tests to prove the DP returns the same minimum.

#include <vector>

#include "core/policy.hpp"

namespace minicost::core {

struct OptimalSequence {
  std::vector<pricing::StorageTier> tiers;  ///< one per day in the window
  double cost = 0.0;                        ///< minimal total cost
};

/// Exact per-file optimum over days [start_day, end_day) of `file`,
/// starting from `initial` (a change away from `initial` on the first day
/// is charged iff charge_initial).
OptimalSequence optimal_sequence(const pricing::PricingPolicy& pricing,
                                 const trace::FileRecord& file,
                                 std::size_t start_day, std::size_t end_day,
                                 pricing::StorageTier initial,
                                 bool charge_initial = true);

/// Brute force over all Γ^(window) sequences; exponential — tests only.
OptimalSequence exhaustive_sequence(const pricing::PricingPolicy& pricing,
                                    const trace::FileRecord& file,
                                    std::size_t start_day, std::size_t end_day,
                                    pricing::StorageTier initial,
                                    bool charge_initial = true);

class OptimalPolicy final : public TieringPolicy {
 public:
  /// charge_initial: whether moving off the initial tier on the first
  /// decision day costs Cc (matches the simulator's day->day accounting
  /// when the window continues an existing deployment).
  explicit OptimalPolicy(bool charge_initial = true)
      : charge_initial_(charge_initial) {}

  std::string name() const override { return "Optimal"; }
  Knowledge knowledge() const noexcept override { return Knowledge::kFullTrace; }
  std::unique_ptr<TieringPolicy> clone() const override {
    return std::make_unique<OptimalPolicy>(charge_initial_);
  }

  /// Runs the per-file DP for the whole window.
  void prepare(const PlanContext& context) override;

  /// One pass copying the precomputed sequences' day column. Throws
  /// std::out_of_range for a day outside the prepared window.
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  bool charge_initial_;
  std::size_t start_day_ = 0;
  std::vector<std::vector<pricing::StorageTier>> sequences_;
};

}  // namespace minicost::core
