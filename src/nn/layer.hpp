#pragma once
// Layer abstraction for the from-scratch neural network library that powers
// the MiniCost agent (the paper trains its DQNs with TensorFlow/TFLearn; we
// implement the same architecture natively — see DESIGN.md).
//
// Design notes:
//  * Single-sample forward()/backward() are the reference path: every
//    batched pass is defined as bit-identical to a loop of them.
//  * Batched forward via forward_batch(): the deployed daily planning
//    loop pushes every file's state through the network at once, one fused
//    pass per layer instead of B single-sample calls, and the A3C rollout
//    runs its one-row form each step. forward_batch() must produce rows
//    bit-identical to forward(); it never feeds the scalar backward().
//  * Batched training via backward_batch(): the A3C update phase runs one
//    pass per layer over a whole episode's rows, given the input rows each
//    layer consumed on the way forward (Network::forward_batch_train and
//    Network::forward_train_row keep them), with gradients bit-identical to
//    per-row backward() calls.
//  * A layer owns its parameters and their gradient accumulators; backward()
//    ACCUMULATES into the gradients (callers zero them per update step).
//  * Layers cache their last input, so a Network instance is not
//    thread-safe; each A3C worker clones the network instead (Sec. 5.1's
//    asynchronous workers).

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace minicost::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::size_t input_size() const noexcept = 0;
  virtual std::size_t output_size() const noexcept = 0;

  /// Computes out = f(in). `in.size()` must equal input_size() and
  /// `out.size()` output_size(); implementations may cache `in`.
  virtual void forward(std::span<const double> in, std::span<double> out) = 0;

  /// Given dL/d(out), accumulates parameter gradients and writes dL/d(in).
  /// Must be preceded by a forward() on the same input.
  virtual void backward(std::span<const double> grad_out,
                        std::span<double> grad_in) = 0;

  /// Inference-only batched forward: `in` is `batch` rows of input_size()
  /// (row-major), `out` receives `batch` rows of output_size(). Each output
  /// row is bit-identical to forward() on the matching input row. May
  /// clobber any cached forward() state, so it must not precede backward().
  /// The default loops forward(); parameterized layers override it with a
  /// fused whole-batch kernel.
  virtual void forward_batch(std::span<const double> in, std::span<double> out,
                             std::size_t batch) {
    const std::size_t in_width = input_size();
    const std::size_t out_width = output_size();
    for (std::size_t b = 0; b < batch; ++b) {
      forward(in.subspan(b * in_width, in_width),
              out.subspan(b * out_width, out_width));
    }
  }

  /// forward_batch() followed by a Relu layer, fused: stores
  /// `x > 0.0 ? x : 0.0` (Relu's select, so NaN and -0.0 map to +0.0 as
  /// there) instead of x, each row bit-identical to forward() then
  /// Relu::forward(). Returns false, leaving `out` untouched, when the layer
  /// has no fused store; the caller then runs the Relu layer itself.
  /// Inference only, like forward_batch(): Network::forward_batch_train
  /// never fuses, since backward_batch() needs the pre-activation rows.
  virtual bool forward_batch_relu(std::span<const double> /*in*/,
                                  std::span<double> /*out*/,
                                  std::size_t /*batch*/) {
    return false;
  }

  /// Batched training backward: `in` holds the same `batch` rows this layer
  /// consumed on the way forward, `grad_out` holds `batch` rows of
  /// dL/d(out). Accumulates parameter gradients and writes `grad_in`
  /// (`batch` rows of input_size()), bit-identical to running
  /// forward(row); backward(row) per row in ascending row order — batching
  /// eliminates recomputation, it never reorders a single accumulator's
  /// floating-point operations (DESIGN.md §7). Does not depend on cached
  /// forward() state (the input rows are passed in), but may clobber it.
  /// An empty `grad_in` means the caller has no consumer for dL/d(in)
  /// (this is the bottom layer of its network); the layer may then skip
  /// the input-gradient computation entirely — parameter gradients are
  /// unaffected either way. The default replays the scalar path;
  /// parameterized layers override it with fused whole-batch kernels.
  virtual void backward_batch(std::span<const double> in,
                              std::span<const double> grad_out,
                              std::span<double> grad_in, std::size_t batch) {
    const std::size_t in_width = input_size();
    const std::size_t out_width = output_size();
    std::vector<double> out_scratch(out_width);
    std::vector<double> in_scratch;
    if (grad_in.empty()) in_scratch.resize(in_width);
    for (std::size_t b = 0; b < batch; ++b) {
      forward(in.subspan(b * in_width, in_width), out_scratch);
      backward(grad_out.subspan(b * out_width, out_width),
               grad_in.empty() ? std::span<double>(in_scratch)
                               : grad_in.subspan(b * in_width, in_width));
    }
  }

  /// Flat views over parameters and their gradient accumulators; empty for
  /// parameterless layers. The non-const parameters() is the only write
  /// path: a layer may keep data derived from its parameters for
  /// forward_batch() (Dense's transposed weights) and mark it stale there,
  /// so take a fresh span to write after any forward_batch() call. Reads
  /// should use the const overload, which keeps that data.
  virtual std::span<double> parameters() noexcept = 0;
  virtual std::span<const double> parameters() const noexcept = 0;
  virtual std::span<double> gradients() noexcept = 0;

  /// Deep copy (parameters included, cached activations not).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Identifier used by serialization, e.g. "dense 64 32".
  virtual std::string spec() const = 0;
};

}  // namespace minicost::nn
