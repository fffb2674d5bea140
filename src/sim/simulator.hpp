#pragma once
// The cloud-storage service simulator. Plays a tier-assignment plan against
// a request trace under a pricing policy and produces the bill the CSP
// would charge (paper Sec. 4: pay-as-you-go on operations, size, storage
// duration, and tier changes).
//
// Timeline convention: a plan assigns each file a tier *for each day*. At
// the start of day t the file is moved to plan[t] (charging Cc if it
// differs from its day t-1 tier); all of day t's requests and storage are
// then billed at plan[t]'s prices. Day 0 placements are free by default
// (initial upload, no re-tiering happened).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pricing/policy.hpp"
#include "sim/billing.hpp"
#include "sim/cost_model.hpp"
#include "trace/trace.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::sim {

/// Tier of every file for one day; index = FileId.
using DayPlan = std::vector<pricing::StorageTier>;
/// Plans for a run of consecutive days; index = day.
using HorizonPlan = std::vector<DayPlan>;

struct SimulatorOptions {
  /// Tier every file starts in before day 0 (the "type specified by the
  /// cloud customer", Sec. 5.1). Ignored when initial_tiers is non-empty.
  pricing::StorageTier initial_tier = pricing::StorageTier::kHot;
  /// Per-file starting tiers (index = FileId); empty = uniform initial_tier.
  std::vector<pricing::StorageTier> initial_tiers;
  /// Charge Cc when day 0's plan differs from the starting tier. Off by
  /// default: the initial placement is part of the upload, not a re-tiering.
  bool charge_initial_placement = false;
  /// First trace day billed: the simulator's day d reads the trace's day
  /// start_day + d, so a window bills without copying the trace.
  std::size_t start_day = 0;
  /// One past the last billed trace day; 0 = the trace's end. The report
  /// covers days [start_day, end_day).
  std::size_t end_day = 0;
  /// How many files each trace file bills for (index = FileId); empty = one
  /// each. File i's charges and tier changes count members[i] times in the
  /// day sums (DayPartial::add), while its per-file total stays one file's:
  /// run_policy bills one representative per class of identical files.
  std::vector<std::uint32_t> members;
  /// Pool for daily billing; nullptr bills inline. Each fixed-size file
  /// chunk prices into its own exact DayPartial and the partials merge in
  /// chunk order, so the bill is byte-identical for every pool size.
  util::ThreadPool* pool = nullptr;
};

class StorageSimulator {
 public:
  /// The trace and policy are borrowed; both must outlive the simulator.
  /// Throws std::invalid_argument on a bad [start_day, end_day) window or
  /// an initial_tiers or members width other than the file count.
  StorageSimulator(const trace::RequestTrace& trace,
                   const pricing::PricingPolicy& policy,
                   SimulatorOptions options = {});

  /// Applies one day's plan and bills it. Days must be advanced in order;
  /// throws std::invalid_argument on a plan of the wrong width and
  /// std::out_of_range past the billed window.
  void advance(const DayPlan& plan);

  /// Advances through all days of `plan`. Returns the final report.
  const BillingReport& run(const HorizonPlan& plan);

  std::size_t current_day() const noexcept { return day_; }
  const std::vector<pricing::StorageTier>& current_tiers() const noexcept {
    return tiers_;
  }
  const BillingReport& report() const noexcept { return report_; }

  /// Resets to day 0 and the initial tier, clearing the bill.
  void reset();

 private:
  const trace::RequestTrace& trace_;
  const pricing::PricingPolicy& policy_;
  SimulatorOptions options_;
  std::size_t day_ = 0;
  std::vector<pricing::StorageTier> tiers_;
  BillingReport report_;
  std::vector<DayPartial> partials_;  ///< one per file chunk, reused daily
};

/// One-shot convenience: bill `plan` over `trace` under `policy`.
BillingReport simulate(const trace::RequestTrace& trace,
                       const pricing::PricingPolicy& policy,
                       const HorizonPlan& plan, SimulatorOptions options = {});

}  // namespace minicost::sim
