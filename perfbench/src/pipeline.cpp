#include "pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "core/plan_driver.hpp"
#include "core/planner.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using Tier = mc::pricing::StorageTier;

/// Rows encoded per parallel_for index; fixed so the work split never
/// depends on the pool size.
constexpr std::size_t kEncodeChunk = 1024;

std::size_t unique_rows(std::span<const double> rows, std::size_t count,
                        std::size_t width) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(count);
  const auto* bytes = reinterpret_cast<const char*>(rows.data());
  const std::size_t row_bytes = width * sizeof(double);
  for (std::size_t r = 0; r < count; ++r)
    seen.emplace(bytes + r * row_bytes, row_bytes);
  return seen.size();
}

}  // namespace

RebuiltDriver::RebuiltDriver(const mc::store::TraceReader& reader,
                             const mc::pricing::PricingPolicy& prices,
                             mc::core::TieringPolicy& policy,
                             mc::rl::A3CAgent* agent,
                             mc::util::ThreadPool& pool,
                             std::size_t shard_files, std::size_t start_day)
    : reader_(reader),
      prices_(prices),
      policy_(policy),
      agent_(agent),
      pool_(pool),
      start_day_(start_day) {
  const std::size_t n = reader_.file_count();
  const std::size_t shard = shard_files == 0 ? n : shard_files;
  for (std::size_t first = 0; first < n; first += shard)
    shards_.push_back({first, std::min(shard, n - first)});
  cache_.resize(shards_.size());
  dirty_.assign(shards_.size(), true);
}

void RebuiltDriver::mark_dirty(std::size_t first, std::size_t count) {
  if (count > reader_.file_count() || first > reader_.file_count() - count)
    throw std::out_of_range("RebuiltDriver::mark_dirty: bad file range");
  if (count == 0 || shards_.empty()) return;
  const std::size_t shard = shards_.front().count;
  const std::size_t hi = (first + count - 1) / shard;
  for (std::size_t s = first / shard; s <= hi && s < dirty_.size(); ++s)
    dirty_[s] = true;
}

void RebuiltDriver::mark_all_dirty() { dirty_.assign(shards_.size(), true); }

mc::sim::BillingReport RebuiltDriver::replan(Tracer& tracer) {
  const std::size_t window = reader_.days() - start_day_;
  mc::sim::BillingReport full;
  {
    Tracer::Scope span(tracer, "core.merge");
    full = mc::sim::BillingReport(reader_.file_count(), window);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (dirty_[s]) {
      cache_[s] = plan_shard(shards_[s], tracer);
      counts.shards_planned += 1.0;
    }
    {
      Tracer::Scope span(tracer, "core.merge");
      full.merge_shard(cache_[s], shards_[s].first);
    }
    counts.merge_shards += 1.0;
    if (dirty_[s]) {
      Tracer::Scope span(tracer, "store.release");
      reader_.release_frequency_range(shards_[s].first, shards_[s].count);
    }
  }
  dirty_.assign(shards_.size(), false);
  return full;
}

mc::sim::BillingReport RebuiltDriver::plan_shard(const ShardRange& range,
                                                 Tracer& tracer) {
  // Library defaults for everything the benchmark does not set.
  const mc::core::PlanDriverOptions defaults;
  const std::size_t end_day = reader_.days();
  const std::size_t window = end_day - start_day_;

  mc::trace::RequestTrace shard;
  {
    Tracer::Scope span(tracer, "store.materialize");
    shard = reader_.materialize_shard(range.first, range.count);
  }
  counts.materialize_files += static_cast<double>(range.count);
  counts.materialize_raw_bytes += static_cast<double>(
      range.count * reader_.days() * 2 * sizeof(double));

  std::vector<Tier> initial;
  {
    Tracer::Scope span(tracer, "core.prepare");
    initial = defaults.static_initial && start_day_ > 0
                  ? mc::core::static_initial_tiers(shard, prices_, start_day_)
                  : std::vector<Tier>(range.count,
                                      defaults.default_initial_tier);
  }
  const mc::core::PlanContext context{shard,   prices_, start_day_,
                                      end_day, initial, &pool_,
                                      nullptr};
  {
    Tracer::Scope span(tracer, "core.prepare");
    policy_.prepare(context);
  }

  mc::sim::HorizonPlan plan;
  plan.reserve(window);
  std::vector<Tier> current = initial;
  for (std::size_t day = start_day_; day < end_day; ++day) {
    mc::sim::DayPlan day_plan(range.count);
    if (agent_ != nullptr) {
      decide_rl(context, day, current, day_plan, tracer);
    } else {
      Tracer::Scope span(tracer, "core.decide");
      policy_.decide_day(context, day, current, day_plan);
    }
    current = day_plan;
    plan.push_back(std::move(day_plan));
  }
  counts.decide_file_days += static_cast<double>(range.count * window);

  mc::sim::BillingReport bill;
  {
    Tracer::Scope span(tracer, "sim.setup");
    std::optional<mc::trace::RequestTrace> window_trace;
    std::optional<mc::sim::StorageSimulator> simulator;
    window_trace.emplace(shard.window(start_day_, window));
    mc::sim::SimulatorOptions options;
    options.initial_tiers = initial;
    options.charge_initial_placement = defaults.charge_initial_placement;
    options.pool = &pool_;
    simulator.emplace(*window_trace, prices_, std::move(options));
    for (const mc::sim::DayPlan& day_plan : plan) {
      Tracer::Scope advance(tracer, "sim.advance");
      simulator->advance(day_plan);
    }
    bill = simulator->report();
  }
  counts.bill_file_days += static_cast<double>(range.count * window);
  counts.tier_changes += static_cast<double>(bill.tier_changes());
  {
    // Freeing the materialized shard is part of what materializing costs.
    Tracer::Scope span(tracer, "store.materialize");
    shard = {};
  }
  return bill;
}

void RebuiltDriver::decide_rl(const mc::core::PlanContext& context,
                              std::size_t day, const std::vector<Tier>& current,
                              std::vector<Tier>& out, Tracer& tracer) {
  const mc::rl::Featurizer& featurizer = agent_->featurizer();
  const std::size_t n = current.size();
  {
    Tracer::Scope decide(tracer, "core.decide");
    if (day < featurizer.history_len()) {
      // RlPolicy holds every tier until a full history window exists.
      out = current;
    } else {
      const std::size_t width = featurizer.feature_count();
      rows_.resize(n * width);
      {
        Tracer::Scope span(tracer, "rl.featurize");
        const std::span<double> rows(rows_);
        const std::size_t chunks = (n + kEncodeChunk - 1) / kEncodeChunk;
        pool_.parallel_for(0, chunks, [&](std::size_t c) {
          const std::size_t hi = std::min(n, (c + 1) * kEncodeChunk);
          for (std::size_t i = c * kEncodeChunk; i < hi; ++i)
            featurizer.encode_into(context.trace.files()[i], day, current[i],
                                   rows.subspan(i * width, width));
        });
      }
      std::vector<mc::rl::Action> actions;
      {
        Tracer::Scope span(tracer, "rl.forward");
        actions = agent_->act_features_batch(rows_, n, /*greedy=*/true, &pool_);
      }
      for (std::size_t i = 0; i < n; ++i)
        out[i] = mc::pricing::tier_from_index(actions[i]);
      counts.forward_rows += static_cast<double>(n);
    }
  }

  Tracer::Scope verify(tracer, "bench.verify");
  if (tracer.enabled() && day >= featurizer.history_len())
    counts.forward_unique_rows += static_cast<double>(
        unique_rows(rows_, n, featurizer.feature_count()));
  std::vector<Tier> expected(n);
  policy_.decide_day(context, day, current, expected);
  if (expected != out) ++action_mismatches;
}

bool same_bill(const mc::sim::BillingReport& a,
               const mc::sim::BillingReport& b) {
  if (a.file_count() != b.file_count() || a.days() != b.days() ||
      a.tier_changes() != b.tier_changes())
    return false;
  const mc::sim::CostBreakdown& ta = a.grand_total();
  const mc::sim::CostBreakdown& tb = b.grand_total();
  if (std::memcmp(&ta, &tb, sizeof ta) != 0) return false;
  const std::vector<double>& fa = a.per_file_totals();
  const std::vector<double>& fb = b.per_file_totals();
  return std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) == 0;
}

}  // namespace perfbench
