#include "core/planner.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"
#include "stats/descriptive.hpp"
#include "util/stopwatch.hpp"

namespace minicost::core {

PlanResult run_policy(const trace::RequestTrace& trace,
                      const pricing::PricingPolicy& pricing,
                      TieringPolicy& policy, const PlanOptions& options) {
  const std::size_t end_day =
      options.end_day == 0 ? trace.days() : options.end_day;
  if (options.start_day >= end_day || end_day > trace.days())
    throw std::invalid_argument("run_policy: bad planning window");
  const std::size_t n = trace.file_count();

  std::vector<pricing::StorageTier> initial =
      options.initial_tiers.empty()
          ? std::vector<pricing::StorageTier>(n, options.default_initial_tier)
          : options.initial_tiers;
  if (initial.size() != n)
    throw std::invalid_argument("run_policy: initial_tiers width mismatch");

  const PlanContext context{trace,   pricing, options.start_day,
                            end_day, initial, options.pool};
  {
    // Forecast phase: prepare() is where forecasting policies fit their
    // models (ARIMA, seasonal-naive) and the RL policy warms its featurizer.
    MC_OBS_SCOPE("core.run_policy.forecast");
    policy.prepare(context);
  }

  PlanResult result;
  result.policy_name = policy.name();
  result.start_day = options.start_day;
  const std::size_t window = end_day - options.start_day;
  result.plan.reserve(window);
  result.day_seconds.reserve(window);

  MC_OBS_COUNT("core.run_policy.calls", 1);
  MC_OBS_COUNT("core.run_policy.files", n);
  MC_OBS_COUNT("core.run_policy.days", window);

  // Bills only the window's days of the full trace; its current tiers are
  // each file's tier entering the next day.
  sim::SimulatorOptions sim_options;
  sim_options.initial_tiers = initial;
  sim_options.charge_initial_placement = options.charge_initial_placement;
  sim_options.start_day = options.start_day;
  sim_options.end_day = end_day;
  sim_options.pool = &plan_pool(context);
  sim::StorageSimulator simulator(trace, pricing, std::move(sim_options));

  for (std::size_t day = options.start_day; day < end_day; ++day) {
    sim::DayPlan day_plan(n);
    {
      MC_OBS_SCOPE("core.decide");
      util::Stopwatch watch;
      // The whole day goes through the batch API; policies fan the per-file
      // work out over context.pool (see TieringPolicy::decide_day).
      policy.decide_day(context, day, simulator.current_tiers(), day_plan);
      result.day_seconds.push_back(watch.seconds());
    }
    result.decision_seconds += result.day_seconds.back();
    {
      MC_OBS_SCOPE("sim.bill");
      simulator.advance(day_plan);
    }
    result.plan.push_back(std::move(day_plan));
  }
  result.report = simulator.report();
  return result;
}

std::vector<pricing::StorageTier> static_initial_tiers(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& pricing,
    std::size_t observation_days, bool include_archive) {
  if (observation_days == 0 || observation_days > trace.days())
    throw std::invalid_argument("static_initial_tiers: bad observation window");
  std::vector<pricing::StorageTier> tiers(trace.file_count());
  for (std::size_t i = 0; i < trace.file_count(); ++i) {
    const trace::FileRecord& f = trace.files()[i];
    const std::span<const double> reads(f.reads.data(), observation_days);
    const std::span<const double> writes(f.writes.data(), observation_days);
    const double mean_reads = stats::mean(reads);
    const double mean_writes = stats::mean(writes);
    if (include_archive) {
      tiers[i] = sim::best_static_tier(pricing, mean_reads, mean_writes, f.size_gb);
    } else {
      const double hot = sim::file_day_cost_no_change(
                             pricing, pricing::StorageTier::kHot, mean_reads,
                             mean_writes, f.size_gb)
                             .total();
      const double cool = sim::file_day_cost_no_change(
                              pricing, pricing::StorageTier::kCool, mean_reads,
                              mean_writes, f.size_gb)
                              .total();
      tiers[i] = hot <= cool ? pricing::StorageTier::kHot
                             : pricing::StorageTier::kCool;
    }
  }
  return tiers;
}

}  // namespace minicost::core
