// Microbenchmarks for the neural-network substrate: forward/backward of the
// paper's actor architecture at several widths, plus optimizer steps.

#include <benchmark/benchmark.h>

#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/ops.hpp"
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

// One row through forward_batch on warm weights (the Dense layers'
// transposes already built): each A3C rollout step runs it via
// Network::forward_train_row, and policy_probabilities() and value() call
// it directly.
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

// The A3C update's backward pass: one default episode (14 rows) through
// Network::backward_batch on the trunk after forward_batch_train; the bottom
// conv computes no dL/d(input). Gradients keep accumulating across
// iterations.
void BM_NN_BackwardBatch(benchmark::State& state) {
  constexpr std::size_t kRows = 14;
  nn::Network net = make_net(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(4);
  std::vector<double> input(kRows * net.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  std::vector<double> grad(kRows * net.output_size());
  for (double& g : grad) g = rng.uniform(-0.1, 0.1);
  net.forward_batch_train(input, kRows);
  for (auto _ : state) {
    net.backward_batch(grad, kRows);
    benchmark::ClobberMemory();
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NN_BackwardBatch)->Arg(8)->Arg(32)->Arg(128);

// The deployed trunk's two heavy layers in the update, on 14 rows as the
// trainer runs them: the Dense 366 -> 32 with input gradients (its ReLU and
// the conv below consume them) and the conv 28/14/32/4 without (it is the
// bottom layer). Together they are nearly all of BM_NN_BackwardBatch/32.
void run_layer_backward(benchmark::State& state, nn::Layer& layer,
                        bool input_grads) {
  constexpr std::size_t kRows = 14;
  util::Rng rng(5);
  std::vector<double> input(kRows * layer.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  std::vector<double> grad(kRows * layer.output_size());
  for (double& g : grad) g = rng.uniform(-0.1, 0.1);
  std::vector<double> grad_in(input_grads ? kRows * layer.input_size() : 0);
  for (auto _ : state) {
    layer.backward_batch(input, grad, grad_in, kRows);
    benchmark::DoNotOptimize(grad_in.data());
    benchmark::ClobberMemory();
  }
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRows),
      benchmark::Counter::kIsRate);
}

void BM_NN_DenseBackwardBatch(benchmark::State& state) {
  util::Rng rng(1);
  nn::Dense dense(366, 32, rng);
  run_layer_backward(state, dense, /*input_grads=*/true);
}
BENCHMARK(BM_NN_DenseBackwardBatch);

void BM_NN_ConvBackwardBatch(benchmark::State& state) {
  util::Rng rng(1);
  nn::Conv1DOverPrefix conv(28, 14, 32, 4, rng);
  run_layer_backward(state, conv, /*input_grads=*/false);
}
BENCHMARK(BM_NN_ConvBackwardBatch);

// The end of an A3C update: the actor's and critic's gradients (width 32,
// 14 rows accumulated) moved into the caller's flat buffers with their sums
// of squares, the accumulators zeroed, and both vectors clipped to the
// default global norm, as A3CAgent::run_episode does per episode. Each
// iteration first re-runs the two backward passes (untimed) so the
// gradients are nonzero.
void BM_NN_CollectClip(benchmark::State& state) {
  constexpr std::size_t kRows = 14;
  constexpr double kClipNorm = 5.0;
  util::Rng rng(6);
  nn::Network actor = nn::build_trunk(14, 14, 32, 4, 32, 3, rng);
  nn::Network critic = nn::build_trunk(14, 14, 32, 4, 32, 1, rng);
  std::vector<double> input(kRows * actor.input_size());
  for (double& x : input) x = rng.uniform(0.0, 1.0);
  std::vector<double> actor_grad(kRows * actor.output_size());
  std::vector<double> critic_grad(kRows * critic.output_size());
  for (double& g : actor_grad) g = rng.uniform(-0.1, 0.1);
  for (double& g : critic_grad) g = rng.uniform(-0.1, 0.1);
  actor.forward_batch_train(input, kRows);
  critic.forward_batch_train(input, kRows);
  std::vector<double> actor_flat(actor.parameter_count());
  std::vector<double> critic_flat(critic.parameter_count());
  for (auto _ : state) {
    state.PauseTiming();
    actor.backward_batch(actor_grad, kRows);
    critic.backward_batch(critic_grad, kRows);
    state.ResumeTiming();
    const auto [actor_sq, critic_sq] =
        nn::Network::collect_gradients(actor, actor_flat, critic, critic_flat);
    nn::clip_by_norm_squared(actor_flat, actor_sq, kClipNorm);
    nn::clip_by_norm_squared(critic_flat, critic_sq, kClipNorm);
    benchmark::DoNotOptimize(actor_flat.data());
    benchmark::DoNotOptimize(critic_flat.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_NN_CollectClip);

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
