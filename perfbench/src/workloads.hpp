#pragma once
// The benchmark's workloads. Each builds its inputs from the run's seed,
// drives the library's public planning and training entry points on the
// caller's pool, checks the outputs, and adds its metrics to the outcome:
// the end-to-end metrics from untraced runs (RunConfig::trace == false), or
// the per-layer metrics from a traced run (trace == true).

#include <cstdint>
#include <filesystem>
#include <string>

#include "outcome.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Corrupts each reference bill before it is compared, so the checks
  /// must report failed operations (tests the checks themselves).
  bool perturb_bill = false;
  std::filesystem::path work_dir;
};

/// plan-greedy (minicost == false) and plan-minicost.
void run_plan(const RunConfig& config, bool minicost,
              minicost::util::ThreadPool& pool, Outcome& outcome);
/// replan-serve.
void run_replan(const RunConfig& config, minicost::util::ThreadPool& pool,
                Outcome& outcome);
/// train-a3c.
void run_train(const RunConfig& config, minicost::util::ThreadPool& pool,
               Outcome& outcome);

}  // namespace perfbench
