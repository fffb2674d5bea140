#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace minicost::sim {

StorageSimulator::StorageSimulator(trace::TraceView trace,
                                   const pricing::PricingPolicy& policy,
                                   SimulatorOptions options)
    : trace_(trace), policy_(policy), options_(std::move(options)) {
  if (options_.end_day == 0) options_.end_day = trace.days();
  if (options_.start_day > options_.end_day || options_.end_day > trace.days())
    throw std::invalid_argument("StorageSimulator: bad billing window");
  if (!options_.initial_tiers.empty() &&
      options_.initial_tiers.size() != trace.file_count())
    throw std::invalid_argument(
        "StorageSimulator: initial_tiers width mismatch");
  if (!options_.members.empty() &&
      options_.members.size() != trace.file_count())
    throw std::invalid_argument("StorageSimulator: members width mismatch");
  reset();
}

void StorageSimulator::advance(std::span<const pricing::StorageTier> plan) {
  if (day_ >= report_.days())
    throw std::out_of_range("StorageSimulator::advance: past billed window");
  if (plan.size() != trace_.file_count())
    throw std::invalid_argument("StorageSimulator::advance: plan width " +
                                std::to_string(plan.size()) + " != file count " +
                                std::to_string(trace_.file_count()));
  MC_OBS_COUNT("sim.simulator.file_days", plan.size());

  const bool charge_change = day_ > 0 || options_.charge_initial_placement;
  const std::size_t t = options_.start_day + day_;
  const std::span<const trace::FileRecord> files = trace_.files();
  const std::vector<std::uint32_t>& members = options_.members;

  DayPartial partial;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const trace::FileRecord& f = files[i];
    const pricing::StorageTier tier = plan[i];
    const std::uint32_t k = members.empty() ? 1 : members[i];
    CostBreakdown cost = file_day_cost_no_change(policy_, tier, f.reads[t],
                                                 f.writes[t], f.size_gb);
    if (tier != tiers_[i]) {
      if (charge_change)
        cost.change = policy_.change_cost(tiers_[i], tier, f.size_gb);
      partial.tier_changes += k;
      tiers_[i] = tier;
    }
    partial.add(cost, k);
    report_.add_file_total(static_cast<trace::FileId>(i), cost.total());
  }
  report_.add_day(day_, partial);
  ++day_;
}

const BillingReport& StorageSimulator::run(const HorizonPlan& plan) {
  MC_OBS_SCOPE("sim.simulator.run");
  for (const DayPlan& day_plan : plan) advance(day_plan);
  return report_;
}

void StorageSimulator::reset() {
  day_ = 0;
  if (options_.initial_tiers.empty()) {
    tiers_.assign(trace_.file_count(), pricing::StorageTier::kHot);
  } else {
    tiers_ = options_.initial_tiers;
  }
  report_ = BillingReport(trace_.file_count(),
                          options_.end_day - options_.start_day);
}

BillingReport simulate(trace::TraceView trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options) {
  StorageSimulator sim(trace, policy, std::move(options));
  sim.run(plan);
  return sim.report();
}

}  // namespace minicost::sim
