#pragma once
// The paper's cost model (Sec. 4.2.3). The total payment for one file on
// one day, given its tier assignment, decomposes into (Eq. 5):
//   C = Cs (storage, Eq. 6) + Cc (tier change, Eq. 9)
//     + Cr (reads, Eq. 7)   + Cw (writes, Eq. 8)
// All formulas are linear in the request frequencies, so fractional daily
// rates are handled exactly.

#include "pricing/policy.hpp"

namespace minicost::sim {

/// Itemized cost, in dollars.
struct CostBreakdown {
  double storage = 0.0;  ///< Cs
  double read = 0.0;     ///< Cr
  double write = 0.0;    ///< Cw
  double change = 0.0;   ///< Cc

  double total() const noexcept { return storage + read + write + change; }

  // Callers that must be order-independent (BillingReport) only ever fold
  // day-indexed values in ascending day order, so the fold order is fixed
  // and plain double accumulation is exact-contract safe (DESIGN.md §9).
  CostBreakdown& operator+=(const CostBreakdown& other) noexcept {
    storage += other.storage;  // lint-contract: allow(billing-exact-sum) -- fixed day-order fold
    read += other.read;        // lint-contract: allow(billing-exact-sum) -- fixed day-order fold
    write += other.write;      // lint-contract: allow(billing-exact-sum) -- fixed day-order fold
    change += other.change;    // lint-contract: allow(billing-exact-sum) -- fixed day-order fold
    return *this;
  }
  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) noexcept {
    a += b;
    return a;
  }
};

/// Cost of one file for one day: the file sits in `tier`, having been in
/// `previous_tier` the day before (the Θ of Eq. 9 is tier != previous_tier),
/// and serves `reads`/`writes` operations of a `gb`-sized object.
CostBreakdown file_day_cost(const pricing::PricingPolicy& policy,
                            pricing::StorageTier tier,
                            pricing::StorageTier previous_tier, double reads,
                            double writes, double gb) noexcept;

/// Same without any tier-change charge (used for the first day / initial
/// placement, and by planners when evaluating a stay-put day).
CostBreakdown file_day_cost_no_change(const pricing::PricingPolicy& policy,
                                      pricing::StorageTier tier, double reads,
                                      double writes, double gb) noexcept;

/// The cheapest static tier for a file with the given average daily usage
/// profile, ignoring change costs (the "all hot or all cold, whichever is
/// lower" base of the paper's Figure 3 analysis when restricted to
/// {hot, cool}). Considers all tiers.
pricing::StorageTier best_static_tier(const pricing::PricingPolicy& policy,
                                      double avg_reads, double avg_writes,
                                      double gb) noexcept;

/// Daily break-even read rate between two tiers for a file of `gb`:
/// below the returned rate, `colder` is cheaper per day; above it, `warmer`
/// is (change costs excluded; writes assumed proportional to reads with the
/// given ratio). Returns +inf when `warmer` never wins and 0 when it always
/// does.
double tier_crossover_reads(const pricing::PricingPolicy& policy,
                            pricing::StorageTier warmer,
                            pricing::StorageTier colder, double gb,
                            double write_read_ratio = 0.0) noexcept;

}  // namespace minicost::sim
