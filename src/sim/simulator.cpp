#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace minicost::sim {
namespace {

/// Files per billing chunk: each chunk prices into its own DayPartial.
constexpr std::size_t kBillingChunk = 512;
/// Below this width a day's bill is cheaper to price inline than to shard:
/// bench/micro_sim's whole-horizon bill was faster on 4 threads than on 1
/// in about half the runs at 1024-2048 files, and in every run at 3072+.
constexpr std::size_t kParallelBillingGrain = 2048;

}  // namespace

StorageSimulator::StorageSimulator(const trace::RequestTrace& trace,
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

void StorageSimulator::advance(const DayPlan& plan) {
  if (day_ >= report_.days())
    throw std::out_of_range("StorageSimulator::advance: past billed window");
  if (plan.size() != trace_.file_count())
    throw std::invalid_argument("StorageSimulator::advance: plan width " +
                                std::to_string(plan.size()) + " != file count " +
                                std::to_string(trace_.file_count()));
  MC_OBS_COUNT("sim.simulator.file_days", plan.size());

  const bool charge_change = day_ > 0 || options_.charge_initial_placement;
  const std::size_t t = options_.start_day + day_;
  const auto& files = trace_.files();
  const std::size_t n = files.size();
  const std::vector<std::uint32_t>& members = options_.members;

  // Each chunk prices its own files into its own partial and writes only
  // its own files' tiers and totals, so chunks share no mutable state.
  const std::size_t chunks = (n + kBillingChunk - 1) / kBillingChunk;
  partials_.resize(chunks);
  const auto bill_chunk = [&](std::size_t c) {
    DayPartial& partial = partials_[c];
    partial = DayPartial{};
    const std::size_t end = std::min(n, (c + 1) * kBillingChunk);
    for (std::size_t i = c * kBillingChunk; i < end; ++i) {
      const trace::FileRecord& f = files[i];
      const pricing::StorageTier tier = plan[i];
      const std::uint32_t k = members.empty() ? 1 : members[i];
      CostBreakdown cost = file_day_cost_no_change(
          policy_, tier, f.reads[t], f.writes[t], f.size_gb);
      if (tier != tiers_[i]) {
        if (charge_change)
          cost.change = policy_.change_cost(tiers_[i], tier, f.size_gb);
        partial.tier_changes += k;
        tiers_[i] = tier;
      }
      partial.add(cost, k);
      report_.add_file_total(static_cast<trace::FileId>(i), cost.total());
    }
  };
  util::ThreadPool* pool = options_.pool;
  if (pool != nullptr && pool->size() > 1 && n >= kParallelBillingGrain) {
    pool->parallel_for(0, chunks, bill_chunk);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) bill_chunk(c);
  }
  // The partials' sums are exact, so merging them in any order gives the
  // same bill; chunk order just keeps the merge on this thread.
  for (const DayPartial& partial : partials_) report_.add_day(day_, partial);
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
    tiers_.assign(trace_.file_count(), options_.initial_tier);
  } else {
    tiers_ = options_.initial_tiers;
  }
  report_ = BillingReport(trace_.file_count(),
                          options_.end_day - options_.start_day);
}

BillingReport simulate(const trace::RequestTrace& trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options) {
  StorageSimulator sim(trace, policy, std::move(options));
  sim.run(plan);
  return sim.report();
}

}  // namespace minicost::sim
