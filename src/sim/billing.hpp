#pragma once
// Billing reports: what the simulator hands back after running a tier
// assignment plan over a trace. Carries enough detail to regenerate every
// figure (totals vs days, per-file costs for per-bucket breakdowns, the
// Cs/Cc/Cr/Cw decomposition, tier-change counts).
//
// Accumulation is *order-independent*: per-day breakdowns live in exact
// fixed-point accumulators (DayPartial's stats::ExactSums) and are rounded
// to doubles only when read, and the grand total is the day-ordered fold of
// those rounded per-day values. Two reports over the same multiset of
// charges — however the charges were ordered, grouped into partials, or
// split across shard reports merged with merge_shard() — are therefore
// byte-identical (DESIGN.md §9). Per-file totals stay plain doubles: a
// file's charges always arrive in day order from exactly one simulator run,
// so their fold order is fixed.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cost_model.hpp"
#include "stats/exact_sum.hpp"
#include "trace/trace.hpp"

namespace minicost::sim {

/// Exact sums of some of one day's file charges, and how many of those
/// files changed tier. The simulator prices each chunk of files into its own
/// partial; the report keeps one per day. Merging is exact and associative,
/// so any split of a day's files into partials gives the same bytes.
struct DayPartial {
  stats::ExactSum storage, read, write, change;
  std::uint64_t tier_changes = 0;

  /// Adds one file-day charge `members` times, exactly (the charge of a
  /// class of files billed once; throws std::invalid_argument if
  /// non-finite). Tier changes are the caller's to count.
  void add(const CostBreakdown& cost, std::uint32_t members = 1);
  /// Adds another partial's sums and tier changes.
  void add(const DayPartial& other) noexcept;
};

class BillingReport {
 public:
  BillingReport() = default;
  BillingReport(std::size_t files, std::size_t days);

  /// Merges one partial into day `day`'s sums and tier-change count. `day`
  /// must be in range; only an assert checks it (StorageSimulator::advance
  /// validates first).
  void add_day(std::size_t day, const DayPartial& partial);

  /// Adds one day's charge to a file's running total; the caller adds each
  /// file's days in order. Calls for distinct files may run concurrently.
  void add_file_total(trace::FileId file, double cost) {
    // lint-contract: allow(billing-exact-sum) -- per-file folds are day-ordered within one run
    per_file_total_[file] += cost;
  }

  /// Records one file-day charge: add_day with a one-charge partial plus
  /// add_file_total. `file` and `day` must be in range.
  void charge(trace::FileId file, std::size_t day, const CostBreakdown& cost);

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
    return per_day_exact_.at(day).tier_changes;
  }

  /// Cumulative total cost through day d inclusive (the Figure 7/13 series).
  double cumulative_through(std::size_t d) const;

  /// This report widened to `source_of.size()` files, file i taking file
  /// source_of[i]'s total: run_policy's bill of one file per class, handed
  /// back per input file. The day sums and tier changes already count every
  /// class member and are copied as they are. Every source_of entry must be
  /// below file_count() (throws std::out_of_range otherwise).
  BillingReport gather(std::span<const trace::FileId> source_of) const;

  /// Merges a report covering the contiguous file range
  /// [file_offset, file_offset + other.file_count()) of this report's file
  /// space — the shard-streamed planning path; offset 0 with an equal width
  /// merges a report over the same files. Exact, so any merge tree yields
  /// identical bytes. Day counts must match and the range must fit; throws
  /// std::invalid_argument otherwise.
  void merge_shard(const BillingReport& other, std::size_t file_offset);

 private:
  void refresh() const;  ///< re-materializes rounded caches when stale

  std::vector<DayPartial> per_day_exact_;
  std::vector<double> per_file_total_;
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
