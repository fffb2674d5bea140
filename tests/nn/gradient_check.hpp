#pragma once
// Finite-difference gradient verification for the nn tests.

#include <functional>

#include "nn/network.hpp"

namespace minicost::nn {

struct GradientCheckResult {
  double max_abs_error = 0.0;  ///< max |analytic - numeric| over parameters
  double max_rel_error = 0.0;  ///< max error relative to magnitude
  std::size_t checked = 0;
};

/// Checks d(loss)/d(theta) for a scalar loss computed from the network
/// output. `loss` maps the output activations to a scalar; `loss_grad`
/// must return dL/d(output). Central differences with step `epsilon`;
/// at most `max_params` parameters are probed (stride-sampled) to bound
/// cost on large networks.
GradientCheckResult check_gradients(
    Network& net, std::span<const double> input,
    const std::function<double(std::span<const double>)>& loss,
    const std::function<std::vector<double>(std::span<const double>)>& loss_grad,
    double epsilon = 1e-6, std::size_t max_params = 256);

/// Batched variant: `inputs` is `batch` rows of net.input_size() and the
/// total loss is the SUM of `loss` over the output rows. The analytic
/// gradients come from one forward_batch_train() + backward_batch() pass,
/// so this verifies the fused batched backward path end to end against
/// central differences. `loss` / `loss_grad` see one output row at a time.
GradientCheckResult check_gradients_batch(
    Network& net, std::span<const double> inputs, std::size_t batch,
    const std::function<double(std::span<const double>)>& loss,
    const std::function<std::vector<double>(std::span<const double>)>& loss_grad,
    double epsilon = 1e-6, std::size_t max_params = 256);

}  // namespace minicost::nn
