// Microbenchmarks for the neural-network substrate: forward/backward of the
// paper's actor architecture at several widths, plus optimizer steps.

#include <benchmark/benchmark.h>

#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace {

using namespace minicost;

nn::Network make_net(std::size_t width) {
  util::Rng rng(1);
  return nn::build_trunk(14, 14, width, 4, width, 3, rng);
}

std::vector<double> make_input() {
  util::Rng rng(2);
  std::vector<double> input(28);
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  return input;
}

void BM_NN_Forward(benchmark::State& state) {
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> input = make_input();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NN_Forward)->Arg(8)->Arg(32)->Arg(128);

// The trainer's per-step forward: one row through forward_batch on warm
// weights (the Dense layers' transposes already built), as each A3C rollout
// step runs it via Network::forward_train_row. Compare with BM_NN_Forward.
void BM_NN_ForwardRow(benchmark::State& state) {
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> input = make_input();
  net.forward_batch(input, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_batch(input, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NN_ForwardRow)->Arg(8)->Arg(32)->Arg(128);

// What a parameter load adds to the next forward_batch: the Dense 366 -> 32
// behind the deployed conv rebuilds its transposed weights. Each iteration
// takes a writable parameters() span, which marks the transpose stale, then
// forwards one row, so the time is one rebuild plus one row;
// BM_NN_DenseForwardRow is the row alone.
void run_dense_row(benchmark::State& state, bool stale) {
  util::Rng rng(1);
  nn::Dense dense(366, 32, rng);
  std::vector<double> input(dense.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  std::vector<double> output(dense.output_size());
  dense.forward_batch(input, output, 1);
  for (auto _ : state) {
    if (stale) benchmark::DoNotOptimize(dense.parameters().data());
    dense.forward_batch(input, output, 1);
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NN_DenseTranspose(benchmark::State& state) {
  run_dense_row(state, /*stale=*/true);
}
BENCHMARK(BM_NN_DenseTranspose);

void BM_NN_DenseForwardRow(benchmark::State& state) {
  run_dense_row(state, /*stale=*/false);
}
BENCHMARK(BM_NN_DenseForwardRow);

// The inference path the planner runs: one 256-row chunk (A3CAgent's
// act_rows chunk size) through Network::forward_batch.
void BM_NN_ForwardBatch(benchmark::State& state) {
  constexpr std::size_t kRows = 256;
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(3);
  std::vector<double> input(kRows * net.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_batch(input, kRows));
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NN_ForwardBatch)->Arg(8)->Arg(32)->Arg(128);

// The deployed trunk's two heavy layers on their own, each with its ReLU
// fused, on the same 256-row chunk: conv 28/14/32/4 (input, prefix,
// filters, kernel) and the Dense 366 -> 32 behind it. Together they are the
// conv/Dense split of BM_NN_ForwardBatch/32.
void run_layer_relu(benchmark::State& state, nn::Layer& layer) {
  constexpr std::size_t kRows = 256;
  util::Rng rng(3);
  std::vector<double> input(kRows * layer.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  std::vector<double> output(kRows * layer.output_size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward_batch_relu(input, output, kRows));
    benchmark::DoNotOptimize(output.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate);
}

void BM_NN_ConvForwardBatchRelu(benchmark::State& state) {
  util::Rng rng(1);
  nn::Conv1DOverPrefix conv(28, 14, 32, 4, rng);
  run_layer_relu(state, conv);
}
BENCHMARK(BM_NN_ConvForwardBatchRelu);

void BM_NN_DenseForwardBatchRelu(benchmark::State& state) {
  util::Rng rng(1);
  nn::Dense dense(366, 32, rng);
  run_layer_relu(state, dense);
}
BENCHMARK(BM_NN_DenseForwardBatchRelu);

void BM_NN_ForwardBackward(benchmark::State& state) {
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> input = make_input();
  const std::vector<double> grad{1.0, -0.5, 0.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(input));
    benchmark::DoNotOptimize(net.backward(grad));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NN_ForwardBackward)->Arg(8)->Arg(32)->Arg(128);

void BM_NN_SnapshotLoad(benchmark::State& state) {
  nn::Network net = make_net(32);
  for (auto _ : state) {
    auto params = net.snapshot_parameters();
    net.load_parameters(params);
    benchmark::DoNotOptimize(params);
  }
}
BENCHMARK(BM_NN_SnapshotLoad);

void BM_NN_OptimizerStep(benchmark::State& state) {
  nn::Network net = make_net(32);
  nn::Sgd opt(0.005, 0.9);
  std::vector<double> params = net.snapshot_parameters();
  std::vector<double> grads(params.size(), 0.001);
  for (auto _ : state) {
    opt.step(params, grads);
    benchmark::DoNotOptimize(params.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.size()));
}
BENCHMARK(BM_NN_OptimizerStep);

}  // namespace
