#pragma once
// The tiering-policy interface and the trivial single-tier policies the
// paper compares against (Sec. 6.1): "Hot: we always put data files into the
// hot storage type; Cold: we always put data files into cold storage type".
//
// A policy is consulted once per file per day (the paper's daily decision
// loop, Sec. 5.1). prepare() runs once before a planning window so
// whole-horizon policies (Optimal) can precompute, and online policies can
// size caches. Policies declare how much of the future they peek at via
// knowledge() — the evaluation harness prints it so comparisons stay honest.
//
// Two decision entry points exist: the scalar decide() (one file) and the
// batched decide_day() (every file of one day). decide_day() is the hot
// path at fleet scale; its default implementation reproduces the scalar
// loop exactly, and every override must keep the outputs byte-identical to
// that loop (see DESIGN.md, "Batched planning pipeline").

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
  const trace::RequestTrace& trace;       ///< full-horizon trace
  const pricing::PricingPolicy& pricing;  ///< CSP price sheet
  std::size_t start_day;                  ///< first decision day (inclusive)
  std::size_t end_day;                    ///< last decision day (exclusive)
  /// Tier each file holds entering start_day; index = FileId.
  const std::vector<pricing::StorageTier>& initial_tiers;
  /// Pool for batch planning; nullptr = util::ThreadPool::shared(). Results
  /// never depend on the pool's size (per-index work is independent).
  util::ThreadPool* pool = nullptr;
  /// Unused; only perfbench/src/pipeline.cpp's positional init sets it.
  const void* decision_cache = nullptr;
};

/// The pool batch planning runs on: context.pool, or the shared pool.
util::ThreadPool& plan_pool(const PlanContext& context) noexcept;

class TieringPolicy {
 public:
  virtual ~TieringPolicy() = default;

  virtual std::string name() const = 0;
  virtual Knowledge knowledge() const noexcept = 0;

  /// Called once before a planning window.
  virtual void prepare(const PlanContext& context) { (void)context; }

  /// Tier for `file` on `day` given it currently sits in `current`.
  /// `day` is an absolute index into the full trace.
  virtual pricing::StorageTier decide(const PlanContext& context,
                                      trace::FileId file, std::size_t day,
                                      pricing::StorageTier current) = 0;

  /// Batch API: decides the tier of every file for `day` in one call.
  /// `current[i]` is file i's tier entering the day; the decision lands in
  /// `out_plan[i]`. Both spans must be trace.file_count() wide (throws
  /// std::invalid_argument otherwise). The default implementation runs the
  /// scalar decide() over all files — sharded across plan_pool(context) in
  /// contiguous chunks when thread_safe_decide() says that is legal — and
  /// every override must produce byte-identical output to that serial loop.
  virtual void decide_day(const PlanContext& context, std::size_t day,
                          std::span<const pricing::StorageTier> current,
                          std::span<pricing::StorageTier> out_plan);

  /// True when decide() may be called concurrently for distinct files (no
  /// cross-file mutable state). Lets the default decide_day() parallelize.
  virtual bool thread_safe_decide() const noexcept { return false; }
};

/// Pins every file to one tier forever.
class AlwaysTierPolicy final : public TieringPolicy {
 public:
  explicit AlwaysTierPolicy(pricing::StorageTier tier) : tier_(tier) {}

  std::string name() const override;
  Knowledge knowledge() const noexcept override { return Knowledge::kNone; }
  pricing::StorageTier decide(const PlanContext&, trace::FileId, std::size_t,
                              pricing::StorageTier) override {
    return tier_;
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
