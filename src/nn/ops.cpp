#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace minicost::nn {

std::vector<double> softmax(std::span<const double> logits) {
  std::vector<double> result(logits.size());
  if (logits.empty()) return result;
  const double peak = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    result[i] = std::exp(logits[i] - peak);
    total += result[i];
  }
  for (double& value : result) value /= total;
  return result;
}

void softmax_rows(std::span<const double> logits, std::size_t rows,
                  std::span<double> out) {
  if (rows == 0) return;
  if (logits.size() != out.size() || logits.size() % rows != 0)
    throw std::invalid_argument("softmax_rows: buffer size not rows*width");
  const std::size_t width = logits.size() / rows;
  if (width == 0) return;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* x = logits.data() + r * width;
    double* y = out.data() + r * width;
    // Same operation order as softmax(): max, exp with running sum, divide.
    const double peak = *std::max_element(x, x + width);
    double total = 0.0;
    for (std::size_t i = 0; i < width; ++i) {
      y[i] = std::exp(x[i] - peak);
      total += y[i];
    }
    for (std::size_t i = 0; i < width; ++i) y[i] /= total;
  }
}

double entropy(std::span<const double> probabilities) noexcept {
  double h = 0.0;
  for (double p : probabilities) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

std::size_t argmax(std::span<const double> values) noexcept {
  if (values.empty()) return 0;
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

namespace {

double sum_of_squares(std::span<const double> values) noexcept {
  double sum = 0.0;
  for (double value : values) sum += value * value;
  return sum;
}

}  // namespace

double l2_norm(std::span<const double> values) noexcept {
  return std::sqrt(sum_of_squares(values));
}

void clip_by_global_norm(std::span<double> values, double max_norm) noexcept {
  clip_by_norm_squared(values, sum_of_squares(values), max_norm);
}

void clip_by_norm_squared(std::span<double> values, double sum_sq,
                          double max_norm) noexcept {
  if (max_norm <= 0.0) return;
  const double norm = std::sqrt(sum_sq);
  if (norm <= max_norm || norm == 0.0) return;
  const double scale = max_norm / norm;
  for (double& value : values) value *= scale;
}

void policy_entropy_grad_rows(std::span<const double> probs, std::size_t rows,
                              std::span<const std::size_t> chosen,
                              std::span<const double> advantages, double beta,
                              double inv_n, std::span<double> grad) {
  if (rows == 0) return;
  if (probs.size() != grad.size() || probs.size() % rows != 0)
    throw std::invalid_argument(
        "policy_entropy_grad_rows: buffer size not rows*width");
  if (chosen.size() != rows || advantages.size() != rows)
    throw std::invalid_argument(
        "policy_entropy_grad_rows: per-row span size mismatch");
  const std::size_t width = probs.size() / rows;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* pi = probs.data() + r * width;
    double* g = grad.data() + r * width;
    const double advantage = advantages[r];
    const std::size_t action = chosen[r];
    const double h = entropy(std::span<const double>(pi, width));
    for (std::size_t a = 0; a < width; ++a) {
      // Same expressions, same order, as the per-step loss.
      const double pg = (pi[a] - (a == action ? 1.0 : 0.0)) * advantage;
      const double ent = beta * pi[a] * (std::log(std::max(pi[a], 1e-12)) + h);
      g[a] = (pg + ent) * inv_n;
    }
  }
}

void mse_grad_rows(std::span<const double> values,
                   std::span<const double> targets, double inv_n,
                   std::span<double> grad) {
  if (values.size() != targets.size() || values.size() != grad.size())
    throw std::invalid_argument("mse_grad_rows: span size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i)
    grad[i] = 2.0 * (values[i] - targets[i]) * inv_n;
}

}  // namespace minicost::nn
