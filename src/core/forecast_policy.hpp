#pragma once
// Forecast-driven model-predictive tiering — the "predict, then optimize"
// baseline the paper's Section 3 motivates (it fits ARIMA to pick out
// predictable files) but never evaluates. At each re-planning point the
// policy forecasts every file's next `horizon` days of request frequencies
// from its observed history, runs the exact per-file DP (core/optimal) over
// the *forecasted* series, and commits the plan until the next re-plan.
//
// This closes the loop between the forecast substrate and the planner and
// gives MiniCost's RL agent a strong classical competitor: MPC is optimal
// under perfect forecasts and degrades exactly where Figure 4 says
// forecasts degrade — on the high-variability files.

#include <functional>
#include <memory>

#include "core/policy.hpp"
#include "forecast/forecaster.hpp"

namespace minicost::core {

struct ForecastMpcConfig {
  /// Days between re-plans (the paper re-evaluates weekly).
  std::size_t replan_every = 7;
  /// Forecast/DP look-ahead depth.
  std::size_t horizon = 7;
  /// Minimum history before forecasting; before that the policy stays put.
  std::size_t min_history = 14;
  /// Factory for the per-file forecaster. Defaults to seasonal-naive(7),
  /// which is cheap and exploits the weekly request cycle; swap in
  /// forecast::Arima via the factory. run_policy's block clones share it and
  /// run concurrently, so the factory must be callable from multiple
  /// threads (stateless factories are).
  std::function<std::unique_ptr<forecast::Forecaster>()> make_forecaster;
  /// Clamp negative forecasted frequencies to zero.
  bool clamp_nonnegative = true;
};

class ForecastMpcPolicy final : public TieringPolicy {
 public:
  explicit ForecastMpcPolicy(ForecastMpcConfig config = {});

  std::string name() const override { return "Forecast-MPC"; }
  Knowledge knowledge() const noexcept override { return Knowledge::kHistory; }

  std::unique_ptr<TieringPolicy> clone() const override {
    return std::make_unique<ForecastMpcPolicy>(config_);
  }
  void prepare(const PlanContext& context) override;
  /// Per-file state only (plan_[file]), driven by each file's own tier.
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  /// `file`'s tier on `day`: its committed mini-plan, re-planned when stale.
  pricing::StorageTier decide_file(const PlanContext& context,
                                   trace::FileId file, std::size_t day,
                                   pricing::StorageTier current);
  /// Re-plans `file` at `day` from its history; fills plan_[file].
  void replan(const PlanContext& context, trace::FileId file, std::size_t day,
              pricing::StorageTier current);

  ForecastMpcConfig config_;
  /// Per file: the day the current mini-plan starts and its tier sequence.
  struct FilePlan {
    std::size_t start = 0;
    std::vector<pricing::StorageTier> tiers;
  };
  std::vector<FilePlan> plan_;
};

}  // namespace minicost::core
