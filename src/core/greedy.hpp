#pragma once
// The paper's Greedy comparison method (Sec. 6.1): a per-day greedy that
// "calculates the cost difference between putting files into [each tier]
// including the cost of changing the data storage type, then assigns the
// data file into the storage type with lower total cost" — i.e. it chases
// "the minimum money cost only for the next day" (Sec. 3.2) with no
// long-term planning.
//
// GreedyPolicy is the deployable online form: it prices the coming day with
// the most recent *observed* frequency (yesterday's). That one-day
// information lag plus the change-cost hysteresis is exactly the myopia the
// paper blames for Greedy's gap to MiniCost: it joins request spikes a day
// late, leaves them a day late, and flip-flops on noisy files near the tier
// crossover. ClairvoyantGreedyPolicy is the stronger variant that sees the
// decision day's true frequencies (one-day lookahead oracle); the ablation
// bench compares both.

#include "core/policy.hpp"

namespace minicost::core {

class GreedyPolicy final : public TieringPolicy {
 public:
  /// The paper's Greedy weighs "putting files into cold and hot" only —
  /// it never places a file in archive (a heuristic would not risk the
  /// hours-long archive retrieval latency on a one-day cost estimate).
  /// Forfeiting the archive savings on the large population of rarely-read
  /// files (Fig. 2) is what separates Greedy from MiniCost and Optimal in
  /// Figures 7/8. Pass include_archive=true for the 3-tier ablation.
  explicit GreedyPolicy(bool include_archive = false)
      : include_archive_(include_archive) {}

  std::string name() const override {
    return include_archive_ ? "Greedy-3tier" : "Greedy";
  }
  Knowledge knowledge() const noexcept override { return Knowledge::kHistory; }

  /// Pure per-file pricing, sharded on the pool by decide_each_file.
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  bool include_archive_;
};

/// One-day-lookahead oracle variant: sees the decision day's true
/// frequencies (ablation only; not deployable).
class ClairvoyantGreedyPolicy final : public TieringPolicy {
 public:
  explicit ClairvoyantGreedyPolicy(bool include_archive = false)
      : include_archive_(include_archive) {}

  std::string name() const override { return "Greedy-1day-oracle"; }
  Knowledge knowledge() const noexcept override { return Knowledge::kNextDay; }

  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  bool include_archive_;
};

}  // namespace minicost::core
