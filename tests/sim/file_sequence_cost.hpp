#pragma once
// Per-file reference bill for the tests: the cost model is separable across
// files, so a file's simulator total and the per-file optimal DP's planned
// cost must both equal this day-by-day fold of its tier sequence.

#include <vector>

#include "pricing/policy.hpp"
#include "sim/cost_model.hpp"
#include "trace/trace.hpp"

namespace minicost::sim {

/// Bills one file's tier sequence: `tiers[t]` is its tier on day t, and
/// day 0 is free unless charge_initial.
inline double file_sequence_cost(const pricing::PricingPolicy& policy,
                                 const trace::FileRecord& file,
                                 const std::vector<pricing::StorageTier>& tiers,
                                 pricing::StorageTier initial_tier,
                                 bool charge_initial = false) {
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
