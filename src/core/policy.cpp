#include "core/policy.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

/// Below this file count a daily batch is not worth the pool handoff.
constexpr std::size_t kParallelDecideGrain = 256;

}  // namespace

util::ThreadPool& plan_pool(const PlanContext& context) noexcept {
  return context.pool ? *context.pool : util::ThreadPool::shared();
}

void check_batch_widths(const PlanContext& context,
                        std::span<const pricing::StorageTier> current,
                        std::span<pricing::StorageTier> out_plan) {
  if (current.size() != context.trace.file_count() ||
      out_plan.size() != context.trace.file_count())
    throw std::invalid_argument("decide_day: span width != file count");
}

void decide_each_file(const PlanContext& context,
                      std::span<const pricing::StorageTier> current,
                      std::span<pricing::StorageTier> out_plan,
                      const FileDecision& decide_file) {
  check_batch_widths(context, current, out_plan);
  const std::size_t n = out_plan.size();
  const auto decide_one = [&](std::size_t i) {
    out_plan[i] = decide_file(static_cast<trace::FileId>(i), current[i]);
  };
  util::ThreadPool& pool = plan_pool(context);
  if (pool.size() > 1 && n >= kParallelDecideGrain) {
    // Per-index work is independent and out_plan writes are disjoint, so
    // the result is byte-identical to the serial loop for any pool size.
    pool.parallel_for(0, n, decide_one);
  } else {
    for (std::size_t i = 0; i < n; ++i) decide_one(i);
  }
}

void AlwaysTierPolicy::decide_day(const PlanContext& context, std::size_t,
                                  std::span<const pricing::StorageTier> current,
                                  std::span<pricing::StorageTier> out_plan) {
  check_batch_widths(context, current, out_plan);
  std::fill(out_plan.begin(), out_plan.end(), tier_);
}

std::string AlwaysTierPolicy::name() const {
  switch (tier_) {
    case pricing::StorageTier::kHot: return "Hot";
    case pricing::StorageTier::kCool: return "Cold";
    case pricing::StorageTier::kArchive: return "Archive";
  }
  return "Always?";
}

std::unique_ptr<TieringPolicy> make_hot_policy() {
  return std::make_unique<AlwaysTierPolicy>(pricing::StorageTier::kHot);
}

std::unique_ptr<TieringPolicy> make_cold_policy() {
  return std::make_unique<AlwaysTierPolicy>(pricing::StorageTier::kCool);
}

}  // namespace minicost::core
