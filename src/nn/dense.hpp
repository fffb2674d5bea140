#pragma once
// Fully connected layer: out = W in + b.

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace minicost::nn {

class Dense final : public Layer {
 public:
  /// He-uniform initialization (suits the ReLU activations used throughout).
  Dense(std::size_t in, std::size_t out, util::Rng& rng);

  std::size_t input_size() const noexcept override { return in_; }
  std::size_t output_size() const noexcept override { return out_; }

  /// One GEMM over the whole batch (weight rows stay hot across rows).
  void forward_batch(std::span<const double> in, std::span<double> out,
                     std::size_t batch) override;
  /// The same GEMM with the ReLU folded into its final store.
  bool forward_batch_relu(std::span<const double> in, std::span<double> out,
                          std::size_t batch) override;
  /// Fused batched backward: bias, weight, and input gradients in one pass,
  /// SIMD across independent accumulators only, each taking rows in
  /// ascending order (DESIGN.md §7).
  void backward_batch(std::span<const double> in,
                      std::span<const double> grad_out,
                      std::span<double> grad_in, std::size_t batch) override;

  /// The only write path to the weights, so it marks the forward_batch
  /// transpose stale. Write through the span before the next forward_batch
  /// call; a span held across one must be fetched again to write.
  std::span<double> parameters() noexcept override {
    wt_fresh_ = false;
    return params_;
  }
  std::span<const double> parameters() const noexcept override { return params_; }
  std::span<double> gradients() noexcept override { return grads_; }

  std::unique_ptr<Layer> clone() const override;
  std::string spec() const override;

 private:
  // params_ layout: W row-major (out x in), then b (out).
  std::size_t bias_offset() const noexcept { return out_ * in_; }
  void run_batch(std::span<const double> in, std::span<double> out,
                 std::size_t batch, bool relu);

  std::size_t in_, out_;
  std::vector<double> params_;
  std::vector<double> grads_;
  // forward_batch's transposed W, rebuilt only after parameters() hands
  // out a writable span. Copies and clones share it (read-only) until one
  // of them rebuilds: a rebuild writes in place only while no other layer
  // holds the buffer, and otherwise gives this layer a buffer of its own.
  // The holder count is exact at a rebuild, since a layer is never copied
  // while its owner writes it (a Dense is not thread-safe; clone per
  // thread), so a pooled fan-out shares one transpose across its clones.
  std::shared_ptr<std::vector<double>> batch_wt_;
  bool wt_fresh_ = false;
};

}  // namespace minicost::nn
