#pragma once
// The concurrent-requested data file aggregation enhancement (paper
// Sec. 5.2, Algorithm 2). Files that are frequently requested together
// (e.g. assets linked from one webpage) can be combined into one aggregated
// replica so n concurrent requests collapse into one, trading (n-1)·r_dc
// fewer read operations against the storage of the duplicated bytes.
//
//   benefit condition (Eq. 15):  r_dc > u_p · ΣD / ((n-1) · u_rf)
//   aggregation coefficient (Eq. 16):  Ω = (n-1)·r_dc / ΣD  -  u_p / u_rf
//
// with u_p the storage price of the replica's tier over the evaluation
// period and u_rf the per-operation read price. Ω > 0 ⟺ aggregation saves
// money; higher Ω ⟹ higher saving per replica byte. The controller selects
// the top-Ψ groups by Ω each period and deletes a replica whose Ω stays
// below zero for `eviction_periods` consecutive periods.

#include <cstdint>
#include <optional>
#include <vector>

#include "pricing/policy.hpp"
#include "trace/trace.hpp"

namespace minicost::core {

struct AggregationConfig {
  /// Ψ: how many groups (by descending Ω) may hold an aggregated replica.
  std::size_t top_psi = 64;
  /// Tier the aggregated replica is stored in (determines u_p and u_rf).
  pricing::StorageTier replica_tier = pricing::StorageTier::kHot;
  /// Days per evaluation period (the paper re-evaluates weekly).
  std::size_t period_days = 7;
  /// Delete a replica after this many consecutive periods with Ω < 0
  /// (the paper: "two consecutive weeks").
  std::size_t eviction_periods = 2;
  /// Bill member updates against the replica too (every write to a member
  /// must rewrite the aggregate to keep it fresh). The paper's Eq. (13)-(16)
  /// silently ignore this cost; with it off, groups that Ω calls profitable
  /// can lose money on write-heavy workloads. Disable to reproduce the
  /// paper's literal model.
  bool account_replica_writes = true;
};

/// Ω of Eq. (16) for a group of n members totalling sum_size_gb, with mean
/// daily concurrent requests rdc_per_day, under `pricing` at `tier`, per a
/// period of `period_days`. With writes_per_day > 0 the coefficient is
/// extended beyond the paper's formula by the cost of propagating member
/// updates into the replica (expressed in the same per-GB·u_rf units, so
/// Ω > 0 still means "aggregation saves money"). Throws
/// std::invalid_argument for n < 2 or non-positive sizes.
double aggregation_coefficient(const pricing::PricingPolicy& pricing,
                               pricing::StorageTier tier, std::size_t n,
                               double sum_size_gb, double rdc_per_day,
                               std::size_t period_days,
                               double writes_per_day = 0.0);

/// Dollars saved per period by aggregating (negative = loss):
///   (n-1) · r_dc,period · u_rf  -  u_p,period · ΣD   (from Eq. 13/14)
///   - write-propagation cost when writes_per_day > 0.
double aggregation_saving(const pricing::PricingPolicy& pricing,
                          pricing::StorageTier tier, std::size_t n,
                          double sum_size_gb, double rdc_per_day,
                          std::size_t period_days,
                          double writes_per_day = 0.0);

struct GroupEvaluation {
  std::size_t group_index = 0;
  double omega = 0.0;
  double saving_per_period = 0.0;
  bool selected = false;
};

/// Evaluates every co-request group of `trace` over days
/// [period_start, period_start + config.period_days), using the mean daily
/// concurrent request rate, and marks the top-Ψ positive-Ω groups selected
/// (Algorithm 2 lines 3-7). Results are ordered by descending Ω.
std::vector<GroupEvaluation> evaluate_groups(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& pricing,
    const AggregationConfig& config, std::size_t period_start);

/// Materializes the aggregation: returns a copy of `trace` where, for each
/// selected group, (a) each member's reads are reduced by the group's
/// concurrent requests (they are served by the replica instead), (b) one new
/// aggregated file of size ΣD is appended whose reads are the concurrent
/// series and whose writes are the sum of member writes (updates must
/// propagate to keep the replica fresh). Selected groups are removed from
/// the result's group list; `replica_ids` (if given) receives the new
/// FileIds.
trace::RequestTrace apply_aggregation(
    const trace::RequestTrace& trace,
    const std::vector<GroupEvaluation>& evaluations,
    std::vector<trace::FileId>* replica_ids = nullptr);

/// Period-by-period controller (Algorithm 2 + the eviction rule): call
/// on_period_start() at each period boundary; it re-evaluates Ω for every
/// group, admits top-Ψ groups, tracks consecutive negative periods, and
/// reports the active set.
class AggregationController {
 public:
  AggregationController(const pricing::PricingPolicy& pricing,
                        AggregationConfig config);

  /// Updates the active set from the period starting at `period_start`.
  /// Returns the indices of groups whose replicas are active afterwards.
  const std::vector<std::size_t>& on_period_start(
      const trace::RequestTrace& trace, std::size_t period_start);

  std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  const pricing::PricingPolicy& pricing_;
  AggregationConfig config_;
  std::vector<std::size_t> active_;
  std::vector<std::size_t> negative_streak_;  ///< per group index
  std::uint64_t evictions_ = 0;
};

}  // namespace minicost::core
