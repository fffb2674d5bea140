#include "gradient_check.hpp"

#include <algorithm>
#include <cmath>

namespace minicost::nn {

GradientCheckResult check_gradients(
    Network& net, std::span<const double> inputs, std::size_t batch,
    const std::function<double(std::span<const double>)>& loss,
    const std::function<std::vector<double>(std::span<const double>)>& loss_grad,
    double epsilon, std::size_t max_params) {
  GradientCheckResult result;
  const std::size_t out_width = net.output_size();

  // Analytic gradients via the training path under test, from zeroed
  // accumulators.
  std::vector<double> analytic(net.parameter_count());
  net.collect_gradients(analytic);
  const std::vector<double> output = net.forward_batch_train(inputs, batch);
  std::vector<double> grad_rows(batch * out_width);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::vector<double> g = loss_grad(
        std::span<const double>(output.data() + b * out_width, out_width));
    std::copy(g.begin(), g.end(),
              grad_rows.begin() + static_cast<std::ptrdiff_t>(b * out_width));
  }
  net.backward_batch(grad_rows, batch);
  net.collect_gradients(analytic);

  std::vector<double> params = net.snapshot_parameters();
  const std::size_t n = params.size();
  const std::size_t stride =
      std::max<std::size_t>(1, n / std::max<std::size_t>(1, max_params));
  const auto total_loss = [&]() {
    const std::vector<double> out = net.forward_batch(inputs, batch);
    double total = 0.0;
    for (std::size_t b = 0; b < batch; ++b)
      total += loss(
          std::span<const double>(out.data() + b * out_width, out_width));
    return total;
  };

  for (std::size_t i = 0; i < n; i += stride) {
    const double saved = params[i];
    params[i] = saved + epsilon;
    net.load_parameters(params);
    const double plus = total_loss();
    params[i] = saved - epsilon;
    net.load_parameters(params);
    const double minus = total_loss();
    params[i] = saved;

    const double numeric = (plus - minus) / (2.0 * epsilon);
    const double abs_error = std::abs(numeric - analytic[i]);
    const double denom = std::max({std::abs(numeric), std::abs(analytic[i]), 1e-8});
    result.max_abs_error = std::max(result.max_abs_error, abs_error);
    result.max_rel_error = std::max(result.max_rel_error, abs_error / denom);
    ++result.checked;
  }
  net.load_parameters(params);
  return result;
}

}  // namespace minicost::nn
