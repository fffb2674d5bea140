#pragma once
// Layer abstraction for the from-scratch neural network library that powers
// the MiniCost agent (the paper trains its DQNs with TensorFlow/TFLearn; we
// implement the same architecture natively — see DESIGN.md).
//
// Design notes:
//  * One compute path: every layer runs row kernels over `batch` row-major
//    rows. The deployed planning loop pushes a whole chunk of file states
//    through forward_batch(); the A3C rollout, policy_probabilities() and
//    value() run its one-row form.
//  * Each output row depends on its input row alone, and every accumulator
//    adds its terms in the reference order (bias first, inputs or taps
//    ascending, rows ascending; DESIGN.md §7), so results are the same bits
//    at any batch size, row position and dispatch lane. The 0-ULP tests
//    compare against plain scalar math in tests/nn/reference.hpp.
//  * Training passes each layer the input rows it consumed on the way
//    forward (Network::forward_batch_train and Network::forward_train_row
//    keep them); a layer holds no forward state of its own.
//  * A layer owns its parameters and their gradient accumulators;
//    backward_batch() ACCUMULATES into the gradients (Network::
//    collect_gradients moves them out and zeroes them per update step).
//  * A layer is not thread-safe (Dense rebuilds derived weights lazily);
//    each A3C worker clones the network instead (Sec. 5.1's asynchronous
//    workers).

#include <memory>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace minicost::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::size_t input_size() const noexcept = 0;
  virtual std::size_t output_size() const noexcept = 0;

  /// Forward pass: `in` is `batch` rows of input_size() (row-major), `out`
  /// receives `batch` rows of output_size().
  virtual void forward_batch(std::span<const double> in, std::span<double> out,
                             std::size_t batch) = 0;

  /// forward_batch() followed by a Relu layer, fused: stores
  /// `x > 0.0 ? x : 0.0` (Relu's select, so NaN and -0.0 map to +0.0 as
  /// there) instead of x. Returns false, leaving `out` untouched, when the
  /// layer has no fused store; the caller then runs the Relu layer itself.
  /// Inference only: Network::forward_batch_train never fuses, since
  /// backward_batch() needs the pre-activation rows.
  virtual bool forward_batch_relu(std::span<const double> /*in*/,
                                  std::span<double> /*out*/,
                                  std::size_t /*batch*/) {
    return false;
  }

  /// Training backward: `in` holds the same `batch` rows this layer
  /// consumed on the way forward, `grad_out` holds `batch` rows of
  /// dL/d(out). Accumulates parameter gradients, each accumulator taking
  /// rows in ascending order, and writes `grad_in` (`batch` rows of
  /// input_size()). An empty `grad_in` means the caller has no consumer for
  /// dL/d(in) (this is the bottom layer of its network); the layer then
  /// skips that computation, and its parameter gradients are unaffected.
  virtual void backward_batch(std::span<const double> in,
                              std::span<const double> grad_out,
                              std::span<double> grad_in, std::size_t batch) = 0;

  /// Flat views over parameters and their gradient accumulators; empty for
  /// parameterless layers. The non-const parameters() is the only write
  /// path: a layer may keep data derived from its parameters for
  /// forward_batch() (Dense's transposed weights) and mark it stale there,
  /// so take a fresh span to write after any forward_batch() call. Reads
  /// should use the const overload, which keeps that data.
  virtual std::span<double> parameters() noexcept = 0;
  virtual std::span<const double> parameters() const noexcept = 0;
  virtual std::span<double> gradients() noexcept = 0;

  /// Deep copy, parameters and gradient accumulators included.
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Identifier used by serialization, e.g. "dense 64 32".
  virtual std::string spec() const = 0;
};

}  // namespace minicost::nn
