#include "reference.hpp"

#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"

namespace minicost::nn::reference {

// Dense parameters: W row-major (out x in), then b (out).
// Conv parameters: taps row-major (filters x kernel), then one bias each.

std::vector<double> forward(const Layer& layer, std::span<const double> in) {
  const std::span<const double> p = layer.parameters();
  std::vector<double> out(layer.output_size());
  if (dynamic_cast<const Dense*>(&layer) != nullptr) {
    const std::size_t n_in = in.size();
    for (std::size_t o = 0; o < out.size(); ++o) {
      double sum = p[out.size() * n_in + o];
      for (std::size_t i = 0; i < n_in; ++i) sum += p[o * n_in + i] * in[i];
      out[o] = sum;
    }
  } else if (const auto* conv = dynamic_cast<const Conv1DOverPrefix*>(&layer)) {
    const std::size_t pos = conv->positions(), kernel = conv->kernel();
    const std::size_t filters = conv->filters();
    for (std::size_t f = 0; f < filters; ++f) {
      for (std::size_t x = 0; x < pos; ++x) {
        double sum = p[filters * kernel + f];
        for (std::size_t k = 0; k < kernel; ++k)
          sum += p[f * kernel + k] * in[x + k];
        out[f * pos + x] = sum;
      }
    }
    const std::size_t prefix = in.size() - conv->aux();
    for (std::size_t a = 0; a < conv->aux(); ++a)
      out[filters * pos + a] = in[prefix + a];
  } else if (dynamic_cast<const Relu*>(&layer) != nullptr) {
    for (std::size_t i = 0; i < in.size(); ++i)
      out[i] = in[i] > 0.0 ? in[i] : 0.0;
  } else {
    throw std::invalid_argument("reference::forward: " + layer.spec());
  }
  return out;
}

void backward(const Layer& layer, std::span<const double> in,
              std::span<const double> grad_out, std::span<double> grads,
              std::span<double> grad_in) {
  const std::span<const double> p = layer.parameters();
  if (dynamic_cast<const Dense*>(&layer) != nullptr) {
    const std::size_t n_in = in.size(), n_out = grad_out.size();
    for (double& g : grad_in) g = 0.0;
    for (std::size_t o = 0; o < n_out; ++o) {
      const double g = grad_out[o];
      grads[n_out * n_in + o] += g;
      for (std::size_t i = 0; i < n_in; ++i) {
        grads[o * n_in + i] += g * in[i];
        if (!grad_in.empty()) grad_in[i] += g * p[o * n_in + i];
      }
    }
  } else if (const auto* conv = dynamic_cast<const Conv1DOverPrefix*>(&layer)) {
    if (!grad_in.empty())
      throw std::invalid_argument("reference::backward: conv grad_in");
    const std::size_t pos = conv->positions(), kernel = conv->kernel();
    const std::size_t filters = conv->filters();
    for (std::size_t f = 0; f < filters; ++f) {
      for (std::size_t x = 0; x < pos; ++x) {
        const double g = grad_out[f * pos + x];
        grads[filters * kernel + f] += g;
        for (std::size_t k = 0; k < kernel; ++k)
          grads[f * kernel + k] += g * in[x + k];
      }
    }
  } else if (dynamic_cast<const Relu*>(&layer) != nullptr) {
    for (std::size_t i = 0; i < grad_in.size(); ++i)
      grad_in[i] = in[i] > 0.0 ? grad_out[i] : 0.0;
  } else {
    throw std::invalid_argument("reference::backward: " + layer.spec());
  }
}

std::vector<double> forward(const Network& net, std::span<const double> in) {
  std::vector<double> row(in.begin(), in.end());
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    row = forward(net.layer(i), row);
  return row;
}

void backward(const Network& net, std::span<const double> in,
              std::span<const double> grad_out, std::span<double> grads) {
  // inputs[i] is layer i's input row; offsets[i] its first parameter.
  std::vector<std::vector<double>> inputs{{in.begin(), in.end()}};
  std::vector<std::size_t> offsets{0};
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    inputs.push_back(forward(net.layer(i), inputs.back()));
    offsets.push_back(offsets.back() + net.layer(i).parameters().size());
  }
  std::vector<double> grad(grad_out.begin(), grad_out.end());
  for (std::size_t i = net.layer_count(); i-- > 0;) {
    const Layer& layer = net.layer(i);
    std::vector<double> grad_in(i == 0 ? 0 : layer.input_size());
    backward(layer, inputs[i], grad,
             grads.subspan(offsets[i], offsets[i + 1] - offsets[i]), grad_in);
    grad = std::move(grad_in);
  }
}

}  // namespace minicost::nn::reference
