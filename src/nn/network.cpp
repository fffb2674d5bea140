#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"

namespace minicost::nn {

Network::Network(const Network& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  Network copy(other);
  *this = std::move(copy);
  return *this;
}

void Network::add(std::unique_ptr<Layer> layer) {
  if (!layers_.empty() && layer->input_size() != layers_.back()->output_size())
    throw std::invalid_argument(
        "Network::add: layer input " + std::to_string(layer->input_size()) +
        " != previous output " + std::to_string(layers_.back()->output_size()));
  layers_.push_back(std::move(layer));
}

std::size_t Network::input_size() const noexcept {
  return layers_.empty() ? 0 : layers_.front()->input_size();
}

std::size_t Network::output_size() const noexcept {
  return layers_.empty() ? 0 : layers_.back()->output_size();
}

std::vector<double> Network::forward_batch(std::span<const double> input,
                                           std::size_t batch) {
  if (layers_.empty())
    return std::vector<double>(input.begin(), input.end());
  if (input.size() != batch * input_size())
    throw std::invalid_argument("Network::forward_batch: input size mismatch");
  // Ping-pong between two reusable scratch buffers (layers never alias
  // in/out); the wide intermediates are megabytes per chunk, so repeated
  // calls must not reallocate them. The first layer reads the caller's rows
  // in place, and only the final batch × output_size() rows are copied out.
  // A Relu directly after a layer with a fused store (Dense, Conv1D) runs
  // inside that layer's kernel instead of as a pass of its own; training
  // never fuses (forward_batch_train), as backward_batch() needs the
  // pre-activation rows.
  std::span<const double> current = input;
  std::vector<double>* dst = &batch_front_;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = *layers_[i];
    dst->resize(batch * layer.output_size());
    const bool relu_next = i + 1 < layers_.size() &&
                           dynamic_cast<const Relu*>(layers_[i + 1].get());
    if (relu_next && layer.forward_batch_relu(current, *dst, batch))
      ++i;
    else
      layer.forward_batch(current, *dst, batch);
    current = *dst;
    dst = dst == &batch_front_ ? &batch_back_ : &batch_front_;
  }
  return std::vector<double>(current.begin(), current.end());
}

std::vector<double> Network::forward_batch_train(std::span<const double> input,
                                                 std::size_t batch) {
  if (layers_.empty())
    return std::vector<double>(input.begin(), input.end());
  if (input.size() != batch * input_size())
    throw std::invalid_argument(
        "Network::forward_batch_train: input size mismatch");
  // Unlike the inference ping-pong, every layer's input batch is kept: it
  // is exactly the state backward_batch() needs (layers keep no forward
  // state of their own). Buffers persist across calls, so steady-state
  // training does not reallocate.
  train_acts_.resize(layers_.size() + 1);
  train_acts_[0].assign(input.begin(), input.end());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    train_acts_[i + 1].resize(batch * layers_[i]->output_size());
    layers_[i]->forward_batch(train_acts_[i], train_acts_[i + 1], batch);
  }
  train_batch_ = batch;
  return train_acts_.back();
}

void Network::begin_train_batch() {
  train_acts_.resize(layers_.size() + 1);
  for (auto& rows : train_acts_) rows.clear();
  train_batch_ = 0;
}

std::span<const double> Network::forward_train_row(
    std::span<const double> input) {
  if (layers_.empty())
    throw std::logic_error("Network::forward_train_row: empty network");
  if (input.size() != input_size())
    throw std::invalid_argument(
        "Network::forward_train_row: input size mismatch");
  if (train_acts_.size() != layers_.size() + 1)
    throw std::logic_error(
        "Network::forward_train_row: begin_train_batch not called");
  // Each layer runs its one-row forward_batch straight into the tail of the
  // next stash entry, which is that layer's output and the next layer's
  // input. Unfused, like forward_batch_train: backward_batch() needs the
  // pre-activation rows.
  train_acts_[0].insert(train_acts_[0].end(), input.begin(), input.end());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::size_t in_w = layers_[i]->input_size();
    const std::size_t out_w = layers_[i]->output_size();
    const std::span<const double> in(train_acts_[i]);
    std::vector<double>& out = train_acts_[i + 1];
    out.resize(out.size() + out_w);
    layers_[i]->forward_batch(in.last(in_w), std::span<double>(out).last(out_w),
                              1);
  }
  ++train_batch_;
  return std::span<const double>(train_acts_.back()).last(output_size());
}

void Network::backward_batch(std::span<const double> grad_output,
                             std::size_t batch) {
  if (layers_.empty()) return;
  if (batch == 0 || batch != train_batch_ ||
      train_acts_.size() != layers_.size() + 1)
    throw std::logic_error(
        "Network::backward_batch: no matching forward_batch_train");
  if (grad_output.size() != batch * output_size())
    throw std::invalid_argument(
        "Network::backward_batch: gradient size mismatch");
  grad_back_.assign(grad_output.begin(), grad_output.end());
  for (std::size_t i = layers_.size(); i-- > 1;) {
    grad_front_.resize(batch * layers_[i]->input_size());
    layers_[i]->backward_batch(train_acts_[i], grad_back_, grad_front_, batch);
    std::swap(grad_front_, grad_back_);
  }
  // The bottom layer's dL/d(in) has no consumer; an empty span tells the
  // layer to skip it.
  layers_[0]->backward_batch(train_acts_[0], grad_back_, {}, batch);
}

std::size_t Network::parameter_count() const noexcept {
  std::size_t count = 0;
  for (const auto& layer : layers_)
    count += std::as_const(*layer).parameters().size();
  return count;
}

std::vector<double> Network::snapshot_parameters() const {
  std::vector<double> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto params = std::as_const(*layer).parameters();
    flat.insert(flat.end(), params.begin(), params.end());
  }
  return flat;
}

void Network::load_parameters(std::span<const double> flat) {
  if (flat.size() != parameter_count())
    throw std::invalid_argument("Network::load_parameters: size mismatch");
  const double* src = flat.data();
  for (auto& layer : layers_) {
    const auto params = layer->parameters();
    std::copy_n(src, params.size(), params.data());
    src += params.size();
  }
}

namespace {

// A network's gradient accumulators in flat (snapshot) order, handed out a
// run at a time; a run never crosses a layer boundary.
class GradientRuns {
 public:
  explicit GradientRuns(std::vector<std::unique_ptr<Layer>>& layers)
      : layers_(layers) {}

  /// The current layer's accumulators not yet consumed; empty at the end.
  std::span<double> next() {
    for (; layer_ < layers_.size(); ++layer_, used_ = 0) {
      const auto grads = layers_[layer_]->gradients();
      if (used_ < grads.size()) return grads.subspan(used_);
    }
    return {};
  }
  void consume(std::size_t n) noexcept { used_ += n; }

 private:
  std::vector<std::unique_ptr<Layer>>& layers_;
  std::size_t layer_ = 0;
  std::size_t used_ = 0;
};

// Moves `run` to `out`, zeroes it, and returns the serial sum of squares
// continued from `sum_sq`. Out of line and by value so the accumulator
// lives in a register: in the caller it is live across the virtual
// gradients() calls, and GCC then keeps it in memory inside the loop too,
// adding a store-forward to every link of the chain.
[[gnu::noinline]] double move_run(std::span<double> run, double* out,
                                  double sum_sq) noexcept {
  for (std::size_t i = 0; i < run.size(); ++i) {
    const double g = run[i];
    out[i] = g;
    run[i] = 0.0;
    sum_sq += g * g;
  }
  return sum_sq;
}

// move_run over two equally long runs at once: both chains advance one
// element per iteration, each in its own ascending order.
[[gnu::noinline]] void move_run_pair(std::span<double> run_a, double* out_a,
                                     std::span<double> run_b, double* out_b,
                                     std::array<double, 2>& sums) noexcept {
  double sum_a = sums[0], sum_b = sums[1];
  for (std::size_t i = 0; i < run_a.size(); ++i) {
    const double ga = run_a[i];
    const double gb = run_b[i];
    out_a[i] = ga;
    out_b[i] = gb;
    run_a[i] = 0.0;
    run_b[i] = 0.0;
    sum_a += ga * ga;
    sum_b += gb * gb;
  }
  sums = {sum_a, sum_b};
}

}  // namespace

double Network::collect_gradients(std::span<double> out) {
  if (out.size() != parameter_count())
    throw std::invalid_argument("Network::collect_gradients: size mismatch");
  GradientRuns runs(layers_);
  double* dst = out.data();
  double sum_sq = 0.0;
  for (auto run = runs.next(); !run.empty(); run = runs.next()) {
    sum_sq = move_run(run, dst, sum_sq);
    runs.consume(run.size());
    dst += run.size();
  }
  return sum_sq;
}

std::array<double, 2> Network::collect_gradients(Network& first,
                                                 std::span<double> first_out,
                                                 Network& second,
                                                 std::span<double> second_out) {
  if (first_out.size() != first.parameter_count() ||
      second_out.size() != second.parameter_count())
    throw std::invalid_argument("Network::collect_gradients: size mismatch");
  GradientRuns runs_a(first.layers_), runs_b(second.layers_);
  double* dst_a = first_out.data();
  double* dst_b = second_out.data();
  std::array<double, 2> sums{};
  for (;;) {
    const auto run_a = runs_a.next();
    const auto run_b = runs_b.next();
    if (run_a.empty() && run_b.empty()) break;
    if (run_b.empty()) {  // the second network is done
      sums[0] = move_run(run_a, dst_a, sums[0]);
      runs_a.consume(run_a.size());
      dst_a += run_a.size();
      continue;
    }
    if (run_a.empty()) {  // the first network is done
      sums[1] = move_run(run_b, dst_b, sums[1]);
      runs_b.consume(run_b.size());
      dst_b += run_b.size();
      continue;
    }
    const std::size_t n = std::min(run_a.size(), run_b.size());
    move_run_pair(run_a.first(n), dst_a, run_b.first(n), dst_b, sums);
    runs_a.consume(n);
    runs_b.consume(n);
    dst_a += n;
    dst_b += n;
  }
  return sums;
}

Network build_trunk(std::size_t history_len, std::size_t aux_features,
                    std::size_t filters, std::size_t kernel, std::size_t hidden,
                    std::size_t outputs, util::Rng& rng) {
  Network net;
  const std::size_t input = history_len + aux_features;
  auto conv = std::make_unique<Conv1DOverPrefix>(input, history_len, filters,
                                                 kernel, rng);
  const std::size_t conv_out = conv->output_size();
  net.add(std::move(conv));
  net.add(std::make_unique<Relu>(conv_out));
  net.add(std::make_unique<Dense>(conv_out, hidden, rng));
  net.add(std::make_unique<Relu>(hidden));
  net.add(std::make_unique<Dense>(hidden, outputs, rng));
  return net;
}

}  // namespace minicost::nn
