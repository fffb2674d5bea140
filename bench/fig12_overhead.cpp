// Figure 12 — "Overhead": the per-day computing cost of each online policy.
// The paper reports, at 4M-file scale, ~1 minute/day for Hot/Cold and
// 28-36 minutes/day for Greedy and MiniCost, with MiniCost's per-file
// decision under 1 ms. google-benchmark measures one full daily decision
// pass (one decide_day call) per policy here; the reported counters
// extrapolate to the paper's 4M files.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/greedy.hpp"
#include "core/rl_policy.hpp"

namespace {

using namespace minicost;

struct Fixture {
  Fixture()
      : workload(benchx::standard_workload()),
        prices(benchx::standard_pricing()),
        agent(benchx::shared_agent(workload, /*episodes=*/
                                   20000)),  // overhead needs a trained net,
                                             // not a converged one
        initial(core::static_initial_tiers(workload.test, prices, 27)),
        context{workload.test, prices, 27, workload.test.days(), initial} {}

  benchx::Workload workload;
  pricing::PricingPolicy prices;
  std::unique_ptr<rl::A3CAgent> agent;
  std::vector<pricing::StorageTier> initial;
  core::PlanContext context;
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void run_daily_pass(benchmark::State& state, core::TieringPolicy& policy) {
  Fixture& f = fixture();
  const std::size_t day = 30;
  policy.prepare(f.context);
  std::vector<pricing::StorageTier> plan(f.initial.size());
  std::size_t files = 0;
  for (auto _ : state) {
    policy.decide_day(f.context, day, f.initial, plan);
    benchmark::DoNotOptimize(plan.data());
    files += plan.size();
  }
  // items_per_second = file decisions per second. Minutes per day at the
  // paper's 4M-file scale = 4e6 / items_per_second / 60 (tabulated in
  // EXPERIMENTS.md from this number).
  state.SetItemsProcessed(static_cast<std::int64_t>(files));
}

void BM_Fig12_Hot(benchmark::State& state) {
  auto policy = core::make_hot_policy();
  run_daily_pass(state, *policy);
}
BENCHMARK(BM_Fig12_Hot)->Unit(benchmark::kMillisecond);

void BM_Fig12_Cold(benchmark::State& state) {
  auto policy = core::make_cold_policy();
  run_daily_pass(state, *policy);
}
BENCHMARK(BM_Fig12_Cold)->Unit(benchmark::kMillisecond);

void BM_Fig12_Greedy(benchmark::State& state) {
  core::GreedyPolicy policy;
  run_daily_pass(state, policy);
}
BENCHMARK(BM_Fig12_Greedy)->Unit(benchmark::kMillisecond);

void BM_Fig12_MiniCost(benchmark::State& state) {
  core::RlPolicy policy(*fixture().agent);
  run_daily_pass(state, policy);
}
BENCHMARK(BM_Fig12_MiniCost)->Unit(benchmark::kMillisecond);

// The paper's "<1 ms per data file decision" claim, measured directly: one
// A3CAgent::act (actor forward + argmax) per encoded file state. Encoding
// is timed on its own by micro_policies' BM_Decide_FeaturizeOnly.
void BM_Fig12_MiniCostPerFileDecision(benchmark::State& state) {
  Fixture& f = fixture();
  const rl::Featurizer& featurizer = f.agent->featurizer();
  std::vector<std::vector<double>> states;
  for (trace::FileId id = 0; id < f.workload.test.file_count(); ++id)
    states.push_back(featurizer.encode(f.workload.test.file(id), 30,
                                       f.initial[id]));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.agent->act(states[i % states.size()]));
    ++i;
  }
}
BENCHMARK(BM_Fig12_MiniCostPerFileDecision)->Unit(benchmark::kMicrosecond);

}  // namespace
