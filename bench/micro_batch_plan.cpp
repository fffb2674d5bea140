// Planning throughput: one decide_day() call — a day of tier decisions for
// every file — per policy, on a wide synthetic trace, as files/second.
//
// Output is machine-readable JSON on stdout (one object), e.g.
//   {"bench":"micro_batch_plan","files":50000, ...,
//    "results":[{"policy":"MiniCost","batched_files_per_sec":...}, ...]}
//
// MINICOST_SCALE overrides the file count (default 50000); MINICOST_SEED
// the trace/agent seed.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/greedy.hpp"
#include "core/planner.hpp"
#include "core/policy.hpp"
#include "core/rl_policy.hpp"
#include "pricing/policy.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

struct Measurement {
  std::string policy;
  double seconds = 0.0;
};

// Best-of-`repeats` timing of one full-width planning day.
Measurement measure(core::TieringPolicy& policy, const core::PlanContext& context,
                    std::size_t day,
                    const std::vector<pricing::StorageTier>& current,
                    int repeats = 3) {
  Measurement m{policy.name(), 1e300};
  policy.prepare(context);
  std::vector<pricing::StorageTier> plan(context.trace.file_count());
  for (int r = 0; r < repeats; ++r) {
    util::Stopwatch watch;
    policy.decide_day(context, day, current, plan);
    m.seconds = std::min(m.seconds, watch.seconds());
  }
  return m;
}

}  // namespace

int main() {
  const auto files = util::bench_scale(50000);
  const std::size_t days = 30;
  const std::size_t day = 20;  // past the 14-day feature warmup

  trace::SyntheticConfig trace_config;
  trace_config.file_count = files;
  trace_config.days = days;
  trace_config.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(trace_config);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();

  const std::vector<pricing::StorageTier> initial =
      core::static_initial_tiers(tr, azure, 14);
  const core::PlanContext context{tr, azure, 14, days, initial};

  rl::A3CConfig agent_config;
  agent_config.workers = 1;
  rl::A3CAgent agent(agent_config, util::bench_seed());

  std::vector<Measurement> results;
  {
    auto hot = core::make_hot_policy();
    results.push_back(measure(*hot, context, day, initial));
  }
  {
    core::GreedyPolicy greedy;
    results.push_back(measure(greedy, context, day, initial));
  }
  {
    core::RlPolicy minicost(agent);
    results.push_back(measure(minicost, context, day, initial));
  }

  std::printf("{\"bench\":\"micro_batch_plan\",\"files\":%zu,\"day\":%zu,"
              "\"pool_threads\":%zu,\"results\":[",
              files, day, util::ThreadPool::shared().size());
  for (std::size_t i = 0; i < results.size(); ++i)
    std::printf("%s{\"policy\":\"%s\",\"batched_files_per_sec\":%.1f}",
                i == 0 ? "" : ",", results[i].policy.c_str(),
                static_cast<double>(files) / results[i].seconds);
  std::printf("]}\n");

  // Run report: per-policy throughput for the CI perf gate
  // (tools/bench_diff.py reads *_per_sec as higher-is-better).
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("files", static_cast<double>(files));
  for (const Measurement& m : results)
    metrics.emplace_back(m.policy + ".batched_files_per_sec",
                         static_cast<double>(files) / m.seconds);
  benchx::write_run_report("micro_batch_plan", metrics);
  return 0;
}
