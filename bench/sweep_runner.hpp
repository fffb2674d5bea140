#pragma once
// Concurrent hyperparameter-sweep farm for the figure benches (DESIGN.md
// §14). Header-only: bench/ and its tests include it, nothing links it.
//
// The paper's Fig. 9/10/11 experiments train one independent agent per grid
// point (learning rate, greedy rate ε, network width) — an embarrassingly
// parallel workload the figure benches used to run one point at a time.
// SweepRunner farms the grid across the help-while-waiting ThreadPool with
// the guarantees the DESIGN.md §7 determinism contract demands:
//
//   * Per-point results are a pure function of the point index: each job
//     receives a SweepPointContext carrying the index and a seed derived
//     only from (base seed, index) — never from scheduling — and builds its
//     own agent/eval state from them. Nothing is shared between points.
//   * Results land in a pre-sized vector by point index and per-point log
//     output is buffered and flushed in index order after the whole sweep,
//     so stdout and every downstream table are byte-identical for any pool
//     size (including the serial pool() == nullptr path).
//   * Points shard across the pool via parallel_for, so a sweep may run
//     inside another pool task (the pool helps while waiting).
//
// Training inside a point spawns its own worker threads (A3CConfig::workers)
// independent of the pool; keep workers×pool-size near the hardware thread
// count to avoid oversubscription.

#include <cstdint>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost::benchx {

/// Handed to each sweep job; everything a point may randomize must derive
/// from `seed` (or from the job's own captured per-point config).
struct SweepPointContext {
  std::size_t index = 0;  ///< grid-point ordinal in [0, count)
  std::uint64_t seed = 0;  ///< point_seed(base_seed, index)
  /// Per-point progress lines; flushed to the sweep's log stream in index
  /// order after every point finished (never interleaved mid-sweep).
  std::ostringstream log;
};

class SweepRunner {
 public:
  /// `pool == nullptr` runs every point serially on the calling thread —
  /// the determinism reference the CI sweep smoke compares against.
  explicit SweepRunner(std::uint64_t base_seed,
                       util::ThreadPool* pool = nullptr) noexcept
      : base_seed_(base_seed), pool_(pool) {}

  /// Stable per-point seed: SplitMix64-mixed so neighbouring points get
  /// unrelated streams, tagged so point 0 never collides with the base seed
  /// itself (jobs often also train a shared-seed agent for comparability).
  static std::uint64_t point_seed(std::uint64_t base_seed, std::size_t point) {
    // Two SplitMix64 steps: the first lands the base seed in a dispersed
    // state, the second folds the tagged point index in. The tag keeps the
    // point-0 stream away from derivations other components build directly
    // on the base seed (agents, synthetic workloads).
    util::SplitMix64 mix(base_seed ^ 0x5357454550'5453ULL);  // "SWEEP\0TS"
    const std::uint64_t dispersed = mix.next();
    util::SplitMix64 fold(dispersed ^ static_cast<std::uint64_t>(point));
    return fold.next();
  }

  util::ThreadPool* pool() const noexcept { return pool_; }

  /// Runs `job` once per grid point (any order, possibly concurrent),
  /// returns results indexed by point, and flushes the per-point logs to
  /// `log_to` (nullptr discards them) in index order. R must be
  /// default-constructible and movable.
  template <typename R>
  std::vector<R> run(std::size_t count,
                     const std::function<R(SweepPointContext&)>& job,
                     std::ostream* log_to = &std::cout) {
    std::vector<R> results(count);
    std::vector<std::string> logs(count);
    const auto run_point = [&](std::size_t index) {
      SweepPointContext ctx;
      ctx.index = index;
      ctx.seed = point_seed(base_seed_, index);
      results[index] = job(ctx);
      logs[index] = ctx.log.str();
    };
    if (pool_ != nullptr && pool_->size() > 1 && count > 1) {
      pool_->parallel_for(0, count, run_point);
    } else {
      for (std::size_t index = 0; index < count; ++index) run_point(index);
    }
    if (log_to != nullptr) {
      for (const std::string& text : logs) *log_to << text;
      log_to->flush();
    }
    return results;
  }

 private:
  std::uint64_t base_seed_;
  util::ThreadPool* pool_;
};

}  // namespace minicost::benchx
