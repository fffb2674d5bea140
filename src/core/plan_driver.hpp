#pragma once
// The planning driver: the reusable shard scheduler behind `minicost plan`
// over a .mct store (including --compare and --serve) and
// bench/micro_plan_pipeline.
//
// A PlanDriver partitions a mapped .mct store into contiguous file shards
// and plans them one after another through the unchanged run_policy
// harness: materialize -> decide -> bill -> merge, with each shard's
// frequency pages released once billed. Peak resident memory stays O(shard)
// for the trace data plus O(files) for the merged bill.
//
// The driver is *resident*: it keeps the policy object (and therefore a
// trained A3C agent deployed through core::RlPolicy) warm across runs, and
// it caches every shard's BillingReport and decide time from the last run.
// That cache is what makes incremental re-planning work — mark_dirty() a
// file range, call replan(), and only the shards containing dirty files are
// re-materialized and re-decided; the rest are spliced from the cache with
// BillingReport::merge_shard.
//
// Determinism (DESIGN.md §11): for any policy whose decisions are per-file
// — every baseline and the RL policy qualify — a full run and an
// incremental replan with any dirty set produce a bill byte-identical to
// monolithic run_policy over reader.materialize(), for every shard size and
// pool size. Per-shard inputs are bit-equal to monolithic slices
// (materialize_shard copies series bytes verbatim, static_initial_tiers is
// per-file), per-shard planning is the unchanged harness, and the exact-sum
// shard merge is associative and commutative, so splicing cached reports
// cannot perturb a bit. tests/core/plan_driver_test.cpp and
// tests/store/shard_eval_test.cpp pin this across shard sizes, pool sizes,
// and dirty sets. Policies with cross-file state (none in-tree today) would
// see a different PlanContext per shard; callers own that trade-off.
//
// A 0-file store is valid and plans to an empty (0-file) bill.
//
// Timing semantics: decision_seconds is the SUM of per-shard decide time
// (thread-seconds over run_policy's blocks), wall_seconds is the run's
// wall-clock (materialize + decide + bill + merge), and
// decide_ns_per_file_day is their mean per planned file-day. Blocks run
// the days concurrently, so no day has a wall time of its own.

#include <string>
#include <vector>

#include "core/planner.hpp"
#include "store/trace_reader.hpp"

namespace minicost::core {

struct PlanDriverOptions {
  /// Files per shard; 0 = the whole trace as a single shard.
  std::size_t shard_files = 65536;
  std::size_t start_day = 0;  ///< first billed/decided day (inclusive)
  std::size_t end_day = 0;    ///< exclusive; 0 = trace end
  /// When start_day > 0, seed each shard with static_initial_tiers computed
  /// over days [0, start_day) — the paper's hot/cool customer baseline.
  /// Otherwise (or when start_day == 0) every file starts in
  /// `default_initial_tier`.
  bool static_initial = true;
  pricing::StorageTier default_initial_tier = pricing::StorageTier::kHot;
  bool charge_initial_placement = true;
  /// Pool whose threads read each shard (materialize_shard decodes its
  /// chunks in blocks), compute its initial tiers and class hashes, and
  /// plan its file blocks (run_policy); nullptr does all of it on the
  /// calling thread. Results are pool-size independent.
  util::ThreadPool* pool = nullptr;
};

struct PlanDriverRun {
  std::string policy_name;
  /// Full-width bill: file_count() == reader.file_count(), days() == window.
  sim::BillingReport report;
  /// Decide time summed over the shards planned in THIS run (cached shards
  /// contribute nothing).
  double decision_seconds = 0.0;
  /// Wall-clock of the whole run (materialize + decide + bill + merge).
  double wall_seconds = 0.0;
  std::size_t shard_count = 0;      ///< shards in the partition
  std::size_t replanned_shards = 0; ///< shards actually planned this run
  std::size_t start_day = 0;
  /// decision_seconds per file-day of this run's planned shards (ns); 0
  /// when nothing was planned.
  double decide_ns_per_file_day = 0.0;
};

class PlanDriver {
 public:
  /// Borrows reader, pricing, and policy — all must outlive the driver; the
  /// policy instance is reused across every run/replan (a trained agent
  /// stays warm). Throws std::invalid_argument on a bad planning window.
  /// A 0-file store is valid and plans to an empty bill.
  PlanDriver(const store::TraceReader& reader,
             const pricing::PricingPolicy& pricing, TieringPolicy& policy,
             const PlanDriverOptions& options = {});

  /// Plans every shard (ignores and then clears the dirty set) and fills
  /// the per-shard cache.
  PlanDriverRun run();

  /// Marks the shards containing files [first, first + count) dirty.
  /// Throws std::out_of_range past the file count; count == 0 is a no-op.
  void mark_dirty(std::size_t first, std::size_t count);
  void mark_all_dirty();

  /// Re-plans only the dirty shards and splices the cached BillingReports
  /// of the clean ones; clears the dirty set on success. Before the first
  /// run() every shard is dirty, so replan() == run().
  PlanDriverRun replan();

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t dirty_shard_count() const noexcept;
  std::size_t file_count() const noexcept { return reader_.file_count(); }
  const PlanDriverOptions& options() const noexcept { return options_; }

 private:
  struct ShardRange {
    std::size_t first = 0;
    std::size_t count = 0;
  };

  PlanDriverRun run_shards(const std::vector<bool>& replan_shard);

  const store::TraceReader& reader_;
  const pricing::PricingPolicy& pricing_;
  TieringPolicy& policy_;
  PlanDriverOptions options_;
  std::size_t end_day_ = 0;  ///< resolved (options_.end_day or trace end)
  std::vector<ShardRange> shards_;
  std::vector<sim::BillingReport> cache_;  ///< each shard's last bill
  std::vector<bool> dirty_;  ///< per shard; starts all-true
};

}  // namespace minicost::core
