#include "core/forecast_policy.hpp"

#include <algorithm>

#include "core/optimal.hpp"
#include "forecast/seasonal_naive.hpp"

namespace minicost::core {

ForecastMpcPolicy::ForecastMpcPolicy(ForecastMpcConfig config)
    : config_(std::move(config)) {
  if (config_.replan_every == 0 || config_.horizon == 0)
    throw std::invalid_argument("ForecastMpcPolicy: zero replan/horizon");
  if (!config_.make_forecaster) {
    config_.make_forecaster = [] {
      return std::make_unique<forecast::SeasonalNaive>(7);
    };
  }
}

void ForecastMpcPolicy::prepare(const PlanContext& context) {
  plan_.assign(context.trace.file_count(), {});
}

void ForecastMpcPolicy::replan(const PlanContext& context, trace::FileId file,
                               std::size_t day, pricing::StorageTier current) {
  const trace::FileRecord& f = context.trace.file(file);

  // Forecast the next `horizon` days from history [0, day).
  const std::span<const double> read_history(f.reads.data(), day);
  const std::span<const double> write_history(f.writes.data(), day);
  auto forecaster = config_.make_forecaster();
  forecaster->fit(read_history);
  std::vector<double> reads = forecaster->forecast(config_.horizon);
  auto write_forecaster = config_.make_forecaster();
  write_forecaster->fit(write_history);
  std::vector<double> writes = write_forecaster->forecast(config_.horizon);
  if (config_.clamp_nonnegative) {
    for (double& r : reads) r = std::max(0.0, r);
    for (double& w : writes) w = std::max(0.0, w);
  }

  // Exact DP over the forecasted mini-horizon, charged from the file's
  // current tier.
  trace::FileRecord forecasted;
  forecasted.name = f.name;
  forecasted.size_gb = f.size_gb;
  forecasted.reads = std::move(reads);
  forecasted.writes = std::move(writes);
  OptimalSequence sequence = optimal_sequence(
      context.pricing, forecasted, 0, config_.horizon, current,
      /*charge_initial=*/true);

  plan_[file].start = day;
  plan_[file].tiers = std::move(sequence.tiers);
}

void ForecastMpcPolicy::decide_day(
    const PlanContext& context, std::size_t day,
    std::span<const pricing::StorageTier> current,
    std::span<pricing::StorageTier> out_plan) {
  decide_each_file(context, current, out_plan,
                   [&](trace::FileId file, pricing::StorageTier tier) {
                     return decide_file(context, file, day, tier);
                   });
}

pricing::StorageTier ForecastMpcPolicy::decide_file(
    const PlanContext& context, trace::FileId file, std::size_t day,
    pricing::StorageTier current) {
  if (day < config_.min_history) return current;  // not enough history yet

  FilePlan& plan = plan_.at(file);
  const bool stale = plan.tiers.empty() || day < plan.start ||
                     day >= plan.start + config_.replan_every ||
                     day - plan.start >= plan.tiers.size();
  if (stale) replan(context, file, day, current);
  return plan_[file].tiers.at(day - plan_[file].start);
}

}  // namespace minicost::core
