#include "core/plan_driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace minicost::core {

PlanDriver::PlanDriver(const store::TraceReader& reader,
                       const pricing::PricingPolicy& pricing,
                       TieringPolicy& policy, const PlanDriverOptions& options)
    : reader_(reader), pricing_(pricing), policy_(policy), options_(options) {
  end_day_ = options_.end_day == 0 ? reader_.days() : options_.end_day;
  if (options_.start_day >= end_day_ || end_day_ > reader_.days())
    throw std::invalid_argument("PlanDriver: bad planning window");

  const std::size_t n = reader_.file_count();
  const std::size_t shard =
      options_.shard_files == 0 ? n : options_.shard_files;
  for (std::size_t first = 0; first < n; first += shard)
    shards_.push_back({first, std::min(shard, n - first)});
  cache_.resize(shards_.size());
  dirty_.assign(shards_.size(), true);
}

std::size_t PlanDriver::dirty_shard_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(dirty_.begin(), dirty_.end(), true));
}

void PlanDriver::mark_dirty(std::size_t first, std::size_t count) {
  // Overflow-safe form of first + count > file_count (`touch SIZE_MAX 2`
  // must not wrap past the check).
  if (count > reader_.file_count() ||
      first > reader_.file_count() - count)
    throw std::out_of_range("PlanDriver::mark_dirty: bad file range");
  if (count == 0 || shards_.empty()) return;
  // Every shard but the last has the same width, so the partition stride is
  // the first shard's count (== min(shard_files, n)).
  const std::size_t shard = shards_.front().count;
  const std::size_t lo = first / shard;
  const std::size_t hi = (first + count - 1) / shard;
  for (std::size_t s = lo; s <= hi && s < dirty_.size(); ++s)
    dirty_[s] = true;
}

void PlanDriver::mark_all_dirty() { dirty_.assign(shards_.size(), true); }

PlanDriverRun PlanDriver::run() {
  mark_all_dirty();
  return replan();
}

PlanDriverRun PlanDriver::replan() {
  const std::vector<bool> replan_shard = dirty_;
  PlanDriverRun result = run_shards(replan_shard);
  dirty_.assign(shards_.size(), false);
  return result;
}

PlanDriverRun PlanDriver::run_shards(const std::vector<bool>& replan_shard) {
  util::Stopwatch wall;
  const std::size_t window = end_day_ - options_.start_day;

  PlanDriverRun run;
  run.policy_name = policy_.name();
  run.start_day = options_.start_day;
  run.report = sim::BillingReport(reader_.file_count(), window);
  run.shard_count = shards_.size();

  MC_OBS_COUNT("core.plan_driver.calls", 1);
  std::size_t planned_files = 0;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto [first, count] = shards_[s];
    if (!replan_shard[s]) {
      MC_OBS_SCOPE("core.merge");
      run.report.merge_shard(cache_[s], first);
      MC_OBS_COUNT("core.plan_driver.shards_spliced", 1);
      continue;
    }

    trace::RequestTrace shard_trace = [&] {
      MC_OBS_SCOPE("store.materialize");
      return reader_.materialize_shard(first, count, options_.pool);
    }();

    PlanOptions plan_options;
    plan_options.start_day = options_.start_day;
    plan_options.end_day = end_day_;
    plan_options.default_initial_tier = options_.default_initial_tier;
    plan_options.charge_initial_placement = options_.charge_initial_placement;
    plan_options.pool = options_.pool;
    if (options_.static_initial && options_.start_day > 0)
      plan_options.initial_tiers =
          static_initial_tiers(shard_trace, pricing_, options_.start_day,
                               /*include_archive=*/false, options_.pool);

    PlanResult shard_result =
        run_policy(shard_trace, pricing_, policy_, plan_options);

    {
      MC_OBS_SCOPE("core.merge");
      run.report.merge_shard(shard_result.report, first);
    }
    run.decision_seconds += shard_result.decision_seconds;
    planned_files += count;
    ++run.replanned_shards;
    cache_[s] = std::move(shard_result.report);
    MC_OBS_COUNT("core.plan_driver.shards", 1);
    MC_OBS_COUNT("core.plan_driver.files", count);

    // madvise the shard's frequency pages away once billed, keeping RSS
    // bounded by the shard instead of the mapped trace.
    reader_.release_frequency_range(first, count);
  }

  if (planned_files > 0)
    run.decide_ns_per_file_day = run.decision_seconds * 1e9 /
                                 static_cast<double>(planned_files * window);
  run.wall_seconds = wall.seconds();
  return run;
}

}  // namespace minicost::core
