// Featurization latency: encoding one file's state, the per-file half of a
// MiniCost decision. The other half (one A3CAgent::act per encoded state)
// and every policy's full daily decide_day pass are in fig12_overhead.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "rl/a3c.hpp"

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

}  // namespace
