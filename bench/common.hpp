#pragma once
// Shared experiment harness for the figure benches.
//
// Environment knobs (all optional):
//   MINICOST_SCALE     total files in the workload        (default 2500)
//   MINICOST_EPISODES  A3C training episodes              (default 120000)
//   MINICOST_SEED      experiment seed                    (default 42)
//   MINICOST_OUT       output directory for CSV dumps     (default bench_out)
//
// The trained agent is checkpointed under MINICOST_OUT and shared between
// fig07 / fig08 / fig13 (training is the expensive step); delete the
// checkpoint (or change seed/scale) to retrain.

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "pricing/policy.hpp"
#include "rl/a3c.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace minicost::benchx {

struct Workload {
  trace::RequestTrace full;   ///< all files, full 62-day horizon
  trace::RequestTrace train;  ///< 80% of files (paper Sec. 6.1)
  trace::RequestTrace test;   ///< the held-out 20%
  std::uint64_t seed = 0;
};

/// The standard Wikipedia-like workload at MINICOST_SCALE files.
Workload standard_workload(double grouped_fraction = 0.3);

/// The default price sheet (Azure 2020).
pricing::PricingPolicy standard_pricing();

/// Evaluation window: the last 35 days (the paper plots days 7..35).
std::size_t eval_start(const trace::RequestTrace& trace);

/// Trains (or loads the cached) standard agent on the workload's training
/// files. Episodes default to MINICOST_EPISODES. Pass a non-default pricing
/// (plus a distinct cache tag) to train an agent for that price sheet.
std::unique_ptr<rl::A3CAgent> shared_agent(
    const Workload& workload, std::size_t episodes = 0,
    const pricing::PricingPolicy* pricing = nullptr,
    const std::string& tag = "");

/// Output directory for CSV dumps (created on demand).
std::filesystem::path bench_out();

/// Prints the table under a figure banner and mirrors it to
/// bench_out()/<name>.csv. Also leaves the machine-readable run report
/// (write_run_report below) next to the CSV.
void emit(const std::string& name, const std::string& banner,
          const util::Table& table);

/// Writes the schema-versioned observability run report for this process to
/// bench_out()/<name>.json (src/obs/run_report.hpp): env fingerprint, every
/// obs counter/timer touched so far, peak RSS, plus the bench-specific
/// `metrics` scalars. Refuses to overwrite a report written under a
/// different env fingerprint — those get a <name>.<k>.json sibling instead.
/// Returns the path written.
std::filesystem::path write_run_report(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics = {});

/// Prints the "expected shape" note that accompanies every figure.
void expectation(const std::string& text);

/// Sweep concurrency knob for the SweepRunner figure benches, read
/// from MINICOST_SWEEP_POOL:
///   1         → serial (get() == nullptr), the determinism reference
///   N > 1     → a private N-thread pool owned by this object
///   0 / unset → a private hardware-sized pool owned by this object
/// Per-point results are pool-size independent by the SweepRunner contract;
/// the CI sweep smoke pins that by diffing pool sizes 1 and 4.
class SweepPool {
 public:
  SweepPool();
  util::ThreadPool* get() const noexcept { return pool_; }
  /// Human-readable size for banners: 1 for serial.
  std::size_t size() const noexcept { return pool_ ? pool_->size() : 1; }

 private:
  std::unique_ptr<util::ThreadPool> owned_;
  util::ThreadPool* pool_ = nullptr;
};

/// Optimal-action-rate evaluator for the RL-dynamics figures (9/10/11):
/// "the ratio between the actions made by the RL agent and the actions from
/// Optimal" over a fixed 14-day window of a fixed evaluation trace.
class RlEval {
 public:
  /// Uses the last `window` days of `eval_trace`; precomputes the Optimal
  /// plan once. The trace is copied (benches hand in temporaries).
  RlEval(trace::RequestTrace eval_trace, pricing::PricingPolicy pricing,
         std::size_t window = 14);

  /// Greedy-deployment decisions of `agent` vs the Optimal plan.
  double action_rate(rl::A3CAgent& agent) const;

  /// Total billed cost of the agent's plan over the window.
  double cost(rl::A3CAgent& agent) const;
  double optimal_cost() const noexcept { return optimal_cost_; }

 private:
  core::PlanResult run(rl::A3CAgent& agent) const;

  trace::RequestTrace trace_;
  pricing::PricingPolicy pricing_;
  core::PlanOptions options_;
  sim::HorizonPlan optimal_plan_;
  double optimal_cost_ = 0.0;
};

}  // namespace minicost::benchx
