// Featurization latency: encoding one file's state, the per-file half of a
// MiniCost decision; and the other half batched, A3CAgent::act_features_batch
// over 10k encoded states on one thread. Every policy's full daily
// decide_day pass is in fig12_overhead.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

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

// act_features_batch on 10k rows, serial, with the default (untrained)
// agent. `distinct`: uniform random rows, none repeated, so the chunk-local
// dedup finds nothing to save and only its hashing shows. `trace`: one day
// of a 10k-file synthetic trace with whole request counts, as a real trace
// has, every file in Hot, encoded as the planner would; so states repeat
// about as often as in a real plan.
enum class ActInput { kDistinct, kTrace };

std::vector<double> act_input(ActInput input, const rl::Featurizer& featurizer,
                              std::size_t rows) {
  const std::size_t width = featurizer.feature_count();
  std::vector<double> out(rows * width);
  if (input == ActInput::kDistinct) {
    util::Rng rng(3);
    for (double& x : out) x = rng.uniform(0.0, 1.0);
    return out;
  }
  trace::SyntheticConfig config;
  config.file_count = rows;
  config.integral_counts = true;
  config.seed = util::bench_seed();
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  const std::size_t day = benchx::eval_start(trace);
  for (std::size_t i = 0; i < rows; ++i)
    featurizer.encode_into(trace.file(static_cast<trace::FileId>(i)), day,
                           pricing::StorageTier::kHot,
                           std::span<double>(out).subspan(i * width, width));
  return out;
}

void BM_RL_ActFeaturesBatch(benchmark::State& state, ActInput input) {
  constexpr std::size_t kRows = 10'000;
  rl::A3CAgent agent(rl::A3CConfig{}, 7);
  const std::vector<double> rows = act_input(input, agent.featurizer(), kRows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_features_batch(rows, kRows));
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_RL_ActFeaturesBatch, distinct, ActInput::kDistinct)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RL_ActFeaturesBatch, trace, ActInput::kTrace)
    ->Unit(benchmark::kMillisecond);

}  // namespace
