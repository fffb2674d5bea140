#pragma once
// Billing reports: what the simulator hands back after running a tier
// assignment plan over a trace. Carries enough detail to regenerate every
// figure (totals vs days, per-file costs for per-bucket breakdowns, the
// Cs/Cc/Cr/Cw decomposition, tier-change counts).
//
// Accumulation is *order-independent*: per-day breakdowns live in exact
// fixed-point accumulators (stats::ExactSum) and are rounded to doubles only
// when read, and the grand total is the day-ordered fold of those rounded
// per-day values. Two reports over the same multiset of charges — however
// the charges were ordered, grouped, or split across shard reports merged
// with merge_shard() — are therefore byte-identical (DESIGN.md §9).
// Per-file totals stay plain doubles: a file's charges always arrive in day
// order from exactly one simulator run, so their fold order is fixed.

#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "stats/exact_sum.hpp"
#include "trace/trace.hpp"

namespace minicost::sim {

class BillingReport {
 public:
  BillingReport() = default;
  BillingReport(std::size_t files, std::size_t days);

  /// Records one file-day charge. `file` and `day` must be in range; only
  /// an assert checks them (StorageSimulator::advance validates first).
  void charge(trace::FileId file, std::size_t day, const CostBreakdown& cost);

  /// Records a tier change event for statistics; `day` must be in range.
  void count_change(std::size_t day);

  std::size_t days() const noexcept { return per_day_exact_.size(); }
  std::size_t file_count() const noexcept { return per_file_total_.size(); }

  const CostBreakdown& grand_total() const;
  const CostBreakdown& day(std::size_t d) const;
  double file_total(trace::FileId f) const { return per_file_total_.at(f); }
  const std::vector<double>& per_file_totals() const noexcept {
    return per_file_total_;
  }
  std::uint64_t tier_changes() const noexcept { return tier_changes_; }
  std::uint64_t tier_changes_on(std::size_t day) const {
    return per_day_changes_.at(day);
  }

  /// Cumulative total cost through day d inclusive (the Figure 7/13 series).
  double cumulative_through(std::size_t d) const;

  /// Merges a report covering the contiguous file range
  /// [file_offset, file_offset + other.file_count()) of this report's file
  /// space — the shard-streamed planning path; offset 0 with an equal width
  /// merges a report over the same files. Exact, so any merge tree yields
  /// identical bytes. Day counts must match and the range must fit; throws
  /// std::invalid_argument otherwise.
  void merge_shard(const BillingReport& other, std::size_t file_offset);

 private:
  struct ExactBreakdown {
    stats::ExactSum storage, read, write, change;
  };

  void refresh() const;  ///< re-materializes rounded caches when stale

  std::vector<ExactBreakdown> per_day_exact_;
  std::vector<double> per_file_total_;
  std::vector<std::uint64_t> per_day_changes_;
  std::uint64_t tier_changes_ = 0;

  // Rounded views of the exact state, rebuilt lazily on read.
  mutable std::vector<CostBreakdown> per_day_;
  mutable CostBreakdown grand_total_;
  mutable bool stale_ = false;
};

/// True when every component of `a` and `b` has the same bits: -0.0 and
/// +0.0 differ, and so do two values one ulp apart.
bool bitwise_equal(const CostBreakdown& a, const CostBreakdown& b) noexcept;

/// The one definition of a byte-identical bill: equal days and file counts,
/// and bitwise-equal per-day Cs/Cr/Cw/Cc sums, per-day tier-change counts,
/// per-file totals and grand total. The CLI's --compare and --replan checks
/// and the bench self-checks all use this.
bool bitwise_equal(const BillingReport& a, const BillingReport& b);

}  // namespace minicost::sim
