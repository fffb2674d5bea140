#include "sim/simulator.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace minicost::sim {
namespace {

/// Below this width a day's bill is cheaper to price inline than to shard.
constexpr std::size_t kParallelBillingGrain = 1024;

}  // namespace

StorageSimulator::StorageSimulator(const trace::RequestTrace& trace,
                                   const pricing::PricingPolicy& policy,
                                   SimulatorOptions options)
    : trace_(trace),
      policy_(policy),
      options_(std::move(options)),
      tiers_(options_.initial_tiers.empty()
                 ? std::vector<pricing::StorageTier>(trace.file_count(),
                                                     options_.initial_tier)
                 : options_.initial_tiers),
      report_(trace.file_count(), trace.days()) {
  if (tiers_.size() != trace.file_count())
    throw std::invalid_argument(
        "StorageSimulator: initial_tiers width mismatch");
}

void StorageSimulator::advance(const DayPlan& plan) {
  if (day_ >= trace_.days())
    throw std::out_of_range("StorageSimulator::advance: past trace horizon");
  if (plan.size() != trace_.file_count())
    throw std::invalid_argument("StorageSimulator::advance: plan width " +
                                std::to_string(plan.size()) + " != file count " +
                                std::to_string(trace_.file_count()));

  const bool charge_change = day_ > 0 || options_.charge_initial_placement;
  const auto& files = trace_.files();
  const std::size_t n = files.size();

  // Phase 1 — price every file-day. Independent per file (the cost model is
  // separable), so it shards across the pool; writes are disjoint.
  day_costs_.resize(n);
  day_changed_.assign(n, 0);
  const auto price_file = [&](std::size_t i) {
    const trace::FileRecord& f = files[i];
    const pricing::StorageTier tier = plan[i];
    CostBreakdown cost = file_day_cost_no_change(
        policy_, tier, f.reads[day_], f.writes[day_], f.size_gb);
    if (tier != tiers_[i]) {
      if (charge_change)
        cost.change = policy_.change_cost(tiers_[i], tier, f.size_gb);
      day_changed_[i] = 1;
      tiers_[i] = tier;
    }
    day_costs_[i] = cost;
  };
  util::ThreadPool& pool =
      options_.pool ? *options_.pool : util::ThreadPool::shared();
  if (pool.size() > 1 && n >= kParallelBillingGrain) {
    pool.parallel_for(0, n, price_file);
  } else {
    for (std::size_t i = 0; i < n; ++i) price_file(i);
  }

  // Phase 2 — hand the priced file-days to the report, on one thread. The
  // report's per-day sums are exact (stats::ExactSum), so their value does
  // not depend on order; this loop is serial only because nobody has
  // parallelized it yet, not to fix a reduction order.
  for (std::size_t i = 0; i < n; ++i) {
    if (day_changed_[i]) report_.count_change(day_);
    report_.charge(static_cast<trace::FileId>(i), day_, day_costs_[i]);
  }
  ++day_;
}

const BillingReport& StorageSimulator::run(const HorizonPlan& plan) {
  MC_OBS_SCOPE("sim.simulator.run");
  MC_OBS_COUNT("sim.simulator.file_days", plan.size() * trace_.file_count());
  for (const DayPlan& day_plan : plan) advance(day_plan);
  return report_;
}

void StorageSimulator::reset() {
  day_ = 0;
  if (options_.initial_tiers.empty()) {
    tiers_.assign(trace_.file_count(), options_.initial_tier);
  } else {
    tiers_ = options_.initial_tiers;
  }
  report_ = BillingReport(trace_.file_count(), trace_.days());
}

BillingReport simulate(const trace::RequestTrace& trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options) {
  StorageSimulator sim(trace, policy, options);
  sim.run(plan);
  return sim.report();
}

double file_sequence_cost(const pricing::PricingPolicy& policy,
                          const trace::FileRecord& file,
                          const std::vector<pricing::StorageTier>& tiers,
                          pricing::StorageTier initial_tier,
                          bool charge_initial) {
  double total = 0.0;
  pricing::StorageTier previous = initial_tier;
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    CostBreakdown cost = file_day_cost_no_change(
        policy, tiers[t], file.reads.at(t), file.writes.at(t), file.size_gb);
    if (tiers[t] != previous && (t > 0 || charge_initial))
      cost.change = policy.change_cost(previous, tiers[t], file.size_gb);
    total += cost.total();
    previous = tiers[t];
  }
  return total;
}

}  // namespace minicost::sim
