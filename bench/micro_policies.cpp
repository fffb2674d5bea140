// Featurization latency: encoding one file's state, the per-file half of a
// MiniCost decision; whole batched decisions on one thread over 10k files:
// A3CAgent::act_batch from the files' raw states, and
// A3CAgent::act_features_batch from already-encoded states; and a whole
// MiniCost plan of the same files through core::run_policy, which plans one
// file per class of identical files. Every policy's full daily decide_day
// pass is in fig12_overhead.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

struct Fixture {
  Fixture()
      : workload(benchx::standard_workload()),
        featurizer(rl::A3CConfig{}.features) {}

  benchx::Workload workload;
  rl::Featurizer featurizer;  ///< the default agent's featurizer
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Decide_FeaturizeOnly(benchmark::State& state) {
  Fixture& f = fixture();
  std::vector<double> buffer;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto id = static_cast<trace::FileId>(i % f.workload.test.file_count());
    f.featurizer.encode_into(f.workload.test.file(id), 30,
                             pricing::StorageTier::kHot, buffer);
    benchmark::DoNotOptimize(buffer.data());
    ++i;
  }
}
BENCHMARK(BM_Decide_FeaturizeOnly);

// Batched decisions over 10k files, serial, with the default (untrained)
// agent, every file in Hot. `trace`: one day of a synthetic trace with
// whole request counts, as a real trace has, so states repeat about as
// often as in a real plan. `distinct`: the same trace with fractional
// counts, so every state is distinct and the dedup finds nothing to save:
// only its hashing shows.
enum class ActInput { kDistinct, kTrace };

constexpr std::size_t kActFiles = 10'000;

trace::RequestTrace act_trace(ActInput input) {
  trace::SyntheticConfig config;
  config.file_count = kActFiles;
  config.integral_counts = input == ActInput::kTrace;
  config.seed = util::bench_seed();
  return trace::generate_synthetic(config);
}

void set_rows_per_s(benchmark::State& state) {
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kActFiles),
      benchmark::Counter::kIsRate);
}

// act_batch: files to actions, featurizing only the distinct states.
void BM_RL_ActBatch(benchmark::State& state, ActInput input) {
  rl::A3CAgent agent(rl::A3CConfig{}, 7);
  const trace::RequestTrace trace = act_trace(input);
  const std::size_t day = benchx::eval_start(trace);
  const std::vector<pricing::StorageTier> tiers(kActFiles,
                                                pricing::StorageTier::kHot);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_batch(trace.files(), day, tiers));
  }
  set_rows_per_s(state);
}
BENCHMARK_CAPTURE(BM_RL_ActBatch, distinct, ActInput::kDistinct)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RL_ActBatch, trace, ActInput::kTrace)
    ->Unit(benchmark::kMillisecond);

// act_features_batch on the same day's rows, encoded as the planner would.
// `distinct` here is uniform random rows, none repeated.
std::vector<double> encoded_rows(ActInput input,
                                 const rl::Featurizer& featurizer) {
  const std::size_t width = featurizer.feature_count();
  std::vector<double> out(kActFiles * width);
  if (input == ActInput::kDistinct) {
    util::Rng rng(3);
    for (double& x : out) x = rng.uniform(0.0, 1.0);
    return out;
  }
  const trace::RequestTrace trace = act_trace(input);
  const std::size_t day = benchx::eval_start(trace);
  for (std::size_t i = 0; i < kActFiles; ++i)
    featurizer.encode_into(trace.file(static_cast<trace::FileId>(i)), day,
                           pricing::StorageTier::kHot,
                           std::span<double>(out).subspan(i * width, width));
  return out;
}

void BM_RL_ActFeaturesBatch(benchmark::State& state, ActInput input) {
  rl::A3CAgent agent(rl::A3CConfig{}, 7);
  const std::vector<double> rows = encoded_rows(input, agent.featurizer());
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_features_batch(rows, kActFiles));
  }
  set_rows_per_s(state);
}
BENCHMARK_CAPTURE(BM_RL_ActFeaturesBatch, distinct, ActInput::kDistinct)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RL_ActFeaturesBatch, trace, ActInput::kTrace)
    ->Unit(benchmark::kMillisecond);

// run_policy with the MiniCost policy over the 10k files' last 35 days (as
// many as perfbench's plan-minicost bills), from the static hot/cool start,
// on a 1-thread pool. `trace` repeats files, so classes plan about a fifth
// of them; `distinct` repeats none, so only the class pass's cost shows.
void BM_RL_RunPolicy(benchmark::State& state, ActInput input) {
  constexpr std::size_t kBilledDays = 35;
  rl::A3CAgent agent(rl::A3CConfig{}, 7);
  core::RlPolicy policy(agent);
  const trace::RequestTrace trace = act_trace(input);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool one(1);
  core::PlanOptions options;
  options.start_day = trace.days() - kBilledDays;
  options.initial_tiers =
      core::static_initial_tiers(trace, azure, options.start_day);
  options.pool = &one;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_policy(trace, azure, policy, options).report.grand_total());
  }
  state.counters["file_days_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kActFiles * kBilledDays),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_RL_RunPolicy, distinct, ActInput::kDistinct)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RL_RunPolicy, trace, ActInput::kTrace)
    ->Unit(benchmark::kMillisecond);

}  // namespace
