#pragma once
// The tiering-policy interface and the trivial single-tier policies the
// paper compares against (Sec. 6.1): "Hot: we always put data files into the
// hot storage type; Cold: we always put data files into cold storage type".
//
// A policy decides every file's tier for one day in one decide_day() call
// (the paper's daily pass: "the trained agent runs one time for all data
// files", Sec. 5.1). prepare() runs once before a planning window so
// whole-horizon policies (Optimal) can precompute, and online policies can
// size caches. Policies declare how much of the future they peek at via
// knowledge() — the evaluation harness prints it so comparisons stay honest.
//
// decide_day() is the only decision entry point. Policies are serial code:
// run_policy runs one clone() of the policy per block of files, each on one
// thread, so the planning pool never reaches a policy (see DESIGN.md §7).

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "pricing/policy.hpp"
#include "trace/trace.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::core {

enum class Knowledge {
  kNone,       ///< ignores the trace entirely (Hot / Cold)
  kHistory,    ///< online: only days < t when deciding day t (MiniCost)
  kNextDay,    ///< offline-greedy: sees day t's true frequencies (Greedy)
  kFullTrace,  ///< offline: sees the whole horizon (Optimal)
};

struct PlanContext {
  trace::TraceView trace;                 ///< the files planned, full horizon
  const pricing::PricingPolicy& pricing;  ///< CSP price sheet
  std::size_t start_day;                  ///< first decision day (inclusive)
  std::size_t end_day;                    ///< last decision day (exclusive)
  /// Tier each file holds entering start_day; index = FileId.
  std::span<const pricing::StorageTier> initial_tiers;
  /// Unused, like decision_cache: policies never see a pool. Only
  /// perfbench/src/pipeline.cpp's positional init sets either.
  util::ThreadPool* pool = nullptr;
  const void* decision_cache = nullptr;
};

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  virtual std::string name() const = 0;
  virtual Knowledge knowledge() const noexcept = 0;

  /// A fresh policy with this one's configuration that, once prepared on
  /// a context, decides exactly as this one would on it. run_policy makes
  /// one per block of files on its calling thread and runs them
  /// concurrently, one thread each, so whatever a clone shares with this
  /// policy (RlPolicy's agent) must be safe to use from several threads. A
  /// clone may borrow from this policy and must not outlive it.
  virtual std::unique_ptr<TieringPolicy> clone() const = 0;

  /// Called once before a planning window.
  virtual void prepare(const PlanContext& context) { (void)context; }

  /// Decides the tier of every file for `day` (an absolute index into the
  /// full trace). `current[i]` is file i's tier entering the day; the
  /// decision lands in `out_plan[i]`. Both spans must be
  /// trace.file_count() wide (throws std::invalid_argument otherwise).
  virtual void decide_day(const PlanContext& context, std::size_t day,
                          std::span<const pricing::StorageTier> current,
                          std::span<pricing::StorageTier> out_plan) = 0;
};

/// Throws std::invalid_argument unless `current` and `out_plan` are both
/// context.trace.file_count() wide.
void check_batch_widths(const PlanContext& context,
                        std::span<const pricing::StorageTier> current,
                        std::span<pricing::StorageTier> out_plan);

/// One file's decision: its tier for the day, given the tier it holds.
using FileDecision = std::function<pricing::StorageTier(
    trace::FileId file, pricing::StorageTier current)>;

/// decide_day body for per-file independent policies: checks the widths,
/// then sets out_plan[i] = decide_file(i, current[i]) for every file, in
/// file order.
void decide_each_file(const PlanContext& context,
                      std::span<const pricing::StorageTier> current,
                      std::span<pricing::StorageTier> out_plan,
                      const FileDecision& decide_file);

/// Pins every file to one tier forever.
class AlwaysTierPolicy final : public TieringPolicy {
 public:
  explicit AlwaysTierPolicy(pricing::StorageTier tier) : tier_(tier) {}

  std::string name() const override;
  Knowledge knowledge() const noexcept override { return Knowledge::kNone; }
  std::unique_ptr<TieringPolicy> clone() const override {
    return std::make_unique<AlwaysTierPolicy>(tier_);
  }
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override;

 private:
  pricing::StorageTier tier_;
};

/// The paper's "Hot" baseline.
std::unique_ptr<TieringPolicy> make_hot_policy();
/// The paper's "Cold" baseline (Azure's cool tier).
std::unique_ptr<TieringPolicy> make_cold_policy();

}  // namespace minicost::core
