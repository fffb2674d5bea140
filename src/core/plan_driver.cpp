#include "core/plan_driver.hpp"

#include <algorithm>
#include <cmath>
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

  if (options_.decision_cache) {
    DecisionCacheConfig cache_config;
    if (options_.decision_cache_capacity != 0)
      cache_config.capacity = options_.decision_cache_capacity;
    if (options_.decision_cache_shards != 0)
      cache_config.shards = options_.decision_cache_shards;
    decision_cache_ = std::make_unique<DecisionCache>(cache_config);
  }
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

  MC_OBS_COUNT("core.shard_eval.calls", 1);

  const DecisionCacheStats cache_before =
      decision_cache_ ? decision_cache_->stats() : DecisionCacheStats{};

  // Run-local latency histogram (percentiles must cover THIS run only) plus
  // the cumulative global timer the run reports serialize.
  obs::Timer latency;
  obs::Timer* global_latency =
      obs::enabled() ? &obs::timer("core.plan_driver.file_decide") : nullptr;

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto [first, count] = shards_[s];
    if (!replan_shard[s]) {
      MC_OBS_SCOPE("core.shard_eval.merge");
      run.report.merge_shard(cache_[s].report, first);
      MC_OBS_COUNT("core.plan_driver.shards_spliced", 1);
      continue;
    }

    trace::RequestTrace shard_trace = [&] {
      MC_OBS_SCOPE("core.shard_eval.materialize");
      return reader_.materialize_shard(first, count);
    }();

    PlanOptions plan_options;
    plan_options.start_day = options_.start_day;
    plan_options.end_day = end_day_;
    plan_options.default_initial_tier = options_.default_initial_tier;
    plan_options.charge_initial_placement = options_.charge_initial_placement;
    plan_options.pool = options_.pool;
    plan_options.decision_cache = decision_cache_.get();
    if (options_.static_initial && options_.start_day > 0)
      plan_options.initial_tiers =
          static_initial_tiers(shard_trace, pricing_, options_.start_day);

    PlanResult shard_result =
        run_policy(shard_trace, pricing_, policy_, plan_options);

    for (const double day_seconds : shard_result.day_seconds) {
      const double per_file_ns =
          day_seconds * 1e9 / static_cast<double>(count);
      const auto ns = static_cast<std::uint64_t>(
          per_file_ns > 0.0 ? std::llround(per_file_ns) : 0);
      latency.record_ns(ns);
      if (global_latency != nullptr) global_latency->record_ns(ns);
    }

    {
      MC_OBS_SCOPE("core.shard_eval.merge");
      run.report.merge_shard(shard_result.report, first);
    }
    run.decision_seconds += shard_result.decision_seconds;
    ++run.replanned_shards;
    cache_[s].report = std::move(shard_result.report);
    cache_[s].decide_seconds = shard_result.decision_seconds;
    MC_OBS_COUNT("core.shard_eval.shards", 1);
    MC_OBS_COUNT("core.shard_eval.files", count);

    if (options_.release_shard_pages)
      reader_.release_frequency_range(first, count);
  }

  const obs::TimerStats stats = latency.stats();
  run.file_decide_p50_ns = stats.percentile_ns(0.5);
  run.file_decide_p99_ns = stats.percentile_ns(0.99);
  if (decision_cache_) {
    // Delta of the monotone counters; residency fields report the current
    // cache state (a delta of entries would be meaningless).
    const DecisionCacheStats now = decision_cache_->stats();
    run.cache_stats.hits = now.hits - cache_before.hits;
    run.cache_stats.misses = now.misses - cache_before.misses;
    run.cache_stats.insertions = now.insertions - cache_before.insertions;
    run.cache_stats.evictions = now.evictions - cache_before.evictions;
    run.cache_stats.dedup_rows = now.dedup_rows - cache_before.dedup_rows;
    run.cache_stats.dedup_unique_rows =
        now.dedup_unique_rows - cache_before.dedup_unique_rows;
    run.cache_stats.entries = now.entries;
    run.cache_stats.resident_bytes = now.resident_bytes;
  }
  run.wall_seconds = wall.seconds();
  return run;
}

}  // namespace minicost::core
