#pragma once
// The planning/evaluation harness: runs a TieringPolicy day by day over a
// billing window of the trace, one representative per class of files with
// identical inputs, bills each day with the simulator as soon as it is
// decided, and measures decision time (the Figure 12 "computing
// overhead"). The planned files split into contiguous blocks, one per pool
// thread, and each block runs the whole day loop on its own policy clone
// and simulator.

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "sim/simulator.hpp"

namespace minicost::core {

struct PlanOptions {
  std::size_t start_day = 0;  ///< first billed/decided day (inclusive)
  std::size_t end_day = 0;    ///< exclusive; 0 = trace end
  /// Tier each file holds entering the window. Empty = every file starts in
  /// `default_initial_tier`.
  std::vector<pricing::StorageTier> initial_tiers;
  pricing::StorageTier default_initial_tier = pricing::StorageTier::kHot;
  /// Charge Cc when day `start_day`'s assignment differs from the initial
  /// tier (true: the window continues an existing deployment).
  bool charge_initial_placement = true;
  /// Pool whose threads plan the file blocks, one block per thread (never
  /// more blocks than files); nullptr plans one block on the calling
  /// thread. Plans and bills are byte-identical for every pool size.
  util::ThreadPool* pool = nullptr;
};

struct PlanResult {
  std::string policy_name;
  sim::HorizonPlan plan;      ///< plan[t] covers absolute day start_day + t
  sim::BillingReport report;  ///< billed over the window only
  /// Time spent in decide_day(), summed over the blocks: thread-seconds,
  /// not wall-clock, once blocks run concurrently.
  double decision_seconds = 0.0;
  /// decision_seconds per file-day of the input (ns; 0 with no files).
  double decide_ns_per_file_day = 0.0;
  std::size_t start_day = 0;
};

/// Runs `policy` over days [options.start_day, options.end_day) of `trace`
/// and bills the plan. Files with byte-equal series, size and initial tier
/// are planned and billed once per class (DESIGN.md §7); the plan and the
/// report still cover every file. `policy` itself is never prepared or
/// called: each block plans on its own policy.clone(). Throws
/// std::invalid_argument on bad windows.
PlanResult run_policy(const trace::RequestTrace& trace,
                      const pricing::PricingPolicy& pricing,
                      TieringPolicy& policy, const PlanOptions& options);

/// Initial assignment the paper's customer would start from: every file in
/// its cheapest static tier judged on its average usage over days
/// [0, observation_days). By default only hot/cool are considered — the
/// paper's baseline customer "assigns all data files as either hot or cold,
/// whichever yields a lower cost" (Sec. 3.1); archive placement is exactly
/// what the optimizing policies then discover.
std::vector<pricing::StorageTier> static_initial_tiers(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& pricing,
    std::size_t observation_days, bool include_archive = false);

}  // namespace minicost::core
