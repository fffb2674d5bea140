#pragma once
// Test helper: one file's decision, read out of a decide_day() call.

#include <vector>

#include "core/policy.hpp"

namespace minicost::core {

/// `file`'s tier on `day` from policy.decide_day(), with every file of the
/// context entering the day in `current`.
inline pricing::StorageTier decide_one(TieringPolicy& policy,
                                       const PlanContext& context,
                                       trace::FileId file, std::size_t day,
                                       pricing::StorageTier current) {
  const std::vector<pricing::StorageTier> tiers(context.trace.file_count(),
                                                current);
  std::vector<pricing::StorageTier> plan(tiers.size());
  policy.decide_day(context, day, tiers, plan);
  return plan.at(file);
}

}  // namespace minicost::core
