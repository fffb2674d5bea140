#pragma once
// Sequential network container plus the builder for the paper's actor and
// critic architectures.

#include <array>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace minicost::nn {

class Network {
 public:
  Network() = default;
  Network(const Network& other);
  Network& operator=(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  /// Appends a layer; its input size must match the current output size.
  /// Throws std::invalid_argument otherwise.
  void add(std::unique_ptr<Layer> layer);

  std::size_t input_size() const noexcept;
  std::size_t output_size() const noexcept;
  std::size_t layer_count() const noexcept { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Inference forward: `input` is `batch` rows of input_size()
  /// (row-major); returns `batch` rows of output_size(). Runs one kernel
  /// per layer, and a Relu directly after a layer with a fused store
  /// (Layer::forward_batch_relu) inside that layer's kernel. Each output
  /// row depends on its input row alone (DESIGN.md §7), so one row
  /// (batch = 1) is the single-state forward. Throws std::invalid_argument
  /// on an input size mismatch. Not thread-safe; clone per thread.
  std::vector<double> forward_batch(std::span<const double> input,
                                    std::size_t batch);

  /// Training-mode forward: the same rows as forward_batch(), but retains
  /// every layer's input batch so backward_batch() can follow. Not
  /// thread-safe; clone per thread.
  std::vector<double> forward_batch_train(std::span<const double> input,
                                          std::size_t batch);

  /// Row-at-a-time way to arm backward_batch(), for a rollout loop that
  /// chooses each step's input from the previous step's output.
  /// begin_train_batch() clears the stash (keeping its capacity);
  /// forward_train_row() appends `input` to it, runs every layer's one-row
  /// forward_batch() straight into the stash, and returns the output row —
  /// so after B calls the stash is what forward_batch_train() would hold
  /// for those B rows, and every returned row is the forward_batch() row
  /// of its input. The returned span is valid until the next call that
  /// changes the stash. Throws std::invalid_argument on an input size
  /// mismatch and std::logic_error without begin_train_batch(). Not
  /// thread-safe; clone per thread.
  void begin_train_batch();
  std::span<const double> forward_train_row(std::span<const double> input);

  /// Batched backward after forward_batch_train() (or a begin_train_batch()
  /// + forward_train_row() sequence): `grad_output` holds `batch` rows
  /// of dL/d(output). Accumulates every layer's parameter gradients, each
  /// accumulator taking rows in ascending order (DESIGN.md §7). Gradient
  /// descent stops at the bottom layer, so no dL/d(input) is computed.
  /// Throws std::logic_error without a matching forward pass.
  void backward_batch(std::span<const double> grad_output, std::size_t batch);

  /// Total number of trainable parameters.
  std::size_t parameter_count() const noexcept;

  /// Copies all parameters into / out of a single flat vector (parameter
  /// server synchronization). Throws std::invalid_argument on size mismatch.
  std::vector<double> snapshot_parameters() const;
  void load_parameters(std::span<const double> flat);

  /// Moves all accumulated gradients into `out` (the snapshot layout,
  /// parameter_count() long; throws std::invalid_argument otherwise) and
  /// zeroes the accumulators, ready for the next update. Returns the sum of
  /// squares of `out`, accumulated in ascending order in the same pass —
  /// bit-identical to the one clip_by_global_norm() computes over `out`.
  double collect_gradients(std::span<double> out);

  /// collect_gradients() on two networks in one loop, e.g. an actor and
  /// its critic. Each sum-of-squares chain keeps its own ascending order,
  /// so both results are bit-identical to two separate calls; running the
  /// two serial chains side by side hides each one's add latency behind
  /// the other's. Returns {first's sum of squares, second's}.
  static std::array<double, 2> collect_gradients(Network& first,
                                                 std::span<double> first_out,
                                                 Network& second,
                                                 std::span<double> second_out);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<double> batch_front_, batch_back_;          // forward_batch scratch
  std::vector<std::vector<double>> train_acts_;           // per-layer input batches
  std::size_t train_batch_ = 0;                           // rows in train_acts_
  std::vector<double> grad_front_, grad_back_;            // backward_batch scratch
};

/// Builds the MiniCost network trunk (paper Sec. 6.1): the request-history
/// prefix goes through a Conv1D (`filters` filters of size `kernel`, stride
/// 1) and, together with the auxiliary features, into a ReLU hidden layer of
/// `hidden` neurons; a final Dense maps to `outputs` (3 tier logits for the
/// actor, 1 value for the critic). The paper's defaults are filters =
/// hidden = 128, kernel = 4.
Network build_trunk(std::size_t history_len, std::size_t aux_features,
                    std::size_t filters, std::size_t kernel, std::size_t hidden,
                    std::size_t outputs, util::Rng& rng);

}  // namespace minicost::nn
