#pragma once
// 1-D convolution over the leading prefix of the input vector.
//
// The paper's network (Sec. 6.1) feeds the request-frequency history through
// a 1-D convolution ("128 filters, each of size 4 with stride 1") whose
// output is "aggregated with other inputs in a hidden layer". This layer
// implements exactly that wiring for a flat feature vector laid out as
// [ history (prefix_len) | aux features (rest) ]:
//   * the first prefix_len entries are convolved (single input channel,
//     `filters` output channels, kernel `kernel`, stride 1, ReLU-free —
//     activations are separate layers);
//   * the remaining entries pass through unchanged and are appended after
//     the convolution output.
// Output layout: [ conv output (filters * (prefix_len - kernel + 1)) | aux ].

#include <vector>

#include "nn/layer.hpp"

namespace minicost::nn {

class Conv1DOverPrefix final : public Layer {
 public:
  /// Throws std::invalid_argument if kernel == 0, kernel > prefix_len, or
  /// filters == 0.
  Conv1DOverPrefix(std::size_t input_size, std::size_t prefix_len,
                   std::size_t filters, std::size_t kernel, util::Rng& rng);

  std::size_t input_size() const noexcept override { return input_; }
  std::size_t output_size() const noexcept override {
    return filters_ * positions() + aux();
  }

  /// Filter-major convolution: SIMD across positions.
  void forward_batch(std::span<const double> in, std::span<double> out,
                     std::size_t batch) override;
  /// The same convolution with the ReLU folded into its output stores.
  bool forward_batch_relu(std::span<const double> in, std::span<double> out,
                          std::size_t batch) override;
  /// Fused batched backward: bias and tap gradients in one pass, SIMD
  /// across independent accumulators only, each taking rows in ascending
  /// order (DESIGN.md §7). The conv over the input prefix is the bottom
  /// layer by construction, so it computes no dL/d(in): a non-empty
  /// `grad_in` throws std::logic_error.
  void backward_batch(std::span<const double> in,
                      std::span<const double> grad_out,
                      std::span<double> grad_in, std::size_t batch) override;

  std::span<double> parameters() noexcept override { return params_; }
  std::span<const double> parameters() const noexcept override { return params_; }
  std::span<double> gradients() noexcept override { return grads_; }

  std::unique_ptr<Layer> clone() const override;
  std::string spec() const override;

  std::size_t positions() const noexcept { return prefix_ - kernel_ + 1; }
  std::size_t aux() const noexcept { return input_ - prefix_; }
  std::size_t filters() const noexcept { return filters_; }
  std::size_t kernel() const noexcept { return kernel_; }

 private:
  // params_ layout: filter weights (filters x kernel) row-major, then one
  // bias per filter.
  std::size_t bias_offset() const noexcept { return filters_ * kernel_; }

  std::size_t input_, prefix_, filters_, kernel_;
  std::vector<double> params_;
  std::vector<double> grads_;
};

}  // namespace minicost::nn
