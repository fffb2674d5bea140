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

/// Checks d(loss)/d(theta) on `batch` rows of net.input_size(), where the
/// total loss is the SUM of `loss` over the output rows. `loss` maps one
/// output row to a scalar and `loss_grad` returns its dL/d(output). The
/// analytic gradients come from one forward_batch_train() + backward_batch()
/// pass, checked against central differences with step `epsilon`; at most
/// `max_params` parameters are probed (stride-sampled) to bound cost on
/// large networks.
GradientCheckResult check_gradients(
    Network& net, std::span<const double> inputs, std::size_t batch,
    const std::function<double(std::span<const double>)>& loss,
    const std::function<std::vector<double>(std::span<const double>)>& loss_grad,
    double epsilon = 1e-6, std::size_t max_params = 256);

}  // namespace minicost::nn
