// Microbenchmarks for the cost simulator: per-file-day cost evaluation, a
// full daily billing pass and a whole-horizon bill (the simulator bills on
// the calling thread; run_policy runs one simulator per file block), and
// the per-file optimal DP. The trace is as wide as perfbench's
// plan-minicost fleet (10k files). The whole-horizon bill also runs on the
// trace's first 2048 and 4096 files, about the widths run_policy bills
// once a whole-count fleet is planned one file per class.

#include <benchmark/benchmark.h>

#include "core/optimal.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace minicost;

const trace::RequestTrace& bench_trace() {
  static const trace::RequestTrace tr = [] {
    trace::SyntheticConfig config;
    config.file_count = 10000;
    config.seed = 42;
    return trace::generate_synthetic(config);
  }();
  return tr;
}

void BM_Sim_FileDayCost(benchmark::State& state) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  double reads = 3.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::file_day_cost(azure, pricing::StorageTier::kCool,
                           pricing::StorageTier::kHot, reads, 0.12, 0.1));
    reads += 1e-9;  // defeat constant folding
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sim_FileDayCost);

void BM_Sim_DailyBillingPass(benchmark::State& state) {
  const trace::RequestTrace& tr = bench_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const sim::DayPlan plan(tr.file_count(), pricing::StorageTier::kHot);
  for (auto _ : state) {
    sim::StorageSimulator simulator(tr, azure);
    simulator.advance(plan);
    benchmark::DoNotOptimize(simulator.report().grand_total().total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.file_count()));
}
BENCHMARK(BM_Sim_DailyBillingPass)->Unit(benchmark::kMillisecond);

/// The bench trace's first `files` files.
trace::RequestTrace trace_prefix(std::size_t files) {
  const trace::RequestTrace& full = bench_trace();
  return trace::RequestTrace(
      full.days(), std::vector<trace::FileRecord>(
                       full.files().begin(),
                       full.files().begin() + static_cast<std::ptrdiff_t>(files)));
}

void BM_Sim_FullHorizonBilling(benchmark::State& state) {
  const trace::RequestTrace tr =
      trace_prefix(static_cast<std::size_t>(state.range(0)));
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const sim::HorizonPlan plan(
      tr.days(), sim::DayPlan(tr.file_count(), pricing::StorageTier::kCool));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(tr, azure, plan).grand_total().total());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tr.file_count() * tr.days()));
}
BENCHMARK(BM_Sim_FullHorizonBilling)
    ->ArgName("files")
    ->Arg(2048)
    ->Arg(4096)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_Sim_PerFileOptimalDp(benchmark::State& state) {
  const trace::RequestTrace& tr = bench_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto id = static_cast<trace::FileId>(i % tr.file_count());
    benchmark::DoNotOptimize(core::optimal_sequence(
        azure, tr.file(id), 0, tr.days(), pricing::StorageTier::kHot));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sim_PerFileOptimalDp);

}  // namespace
