#pragma once
// The ReLU activation layer (parameterless).

#include "nn/layer.hpp"

namespace minicost::nn {

class Relu final : public Layer {
 public:
  explicit Relu(std::size_t size) : size_(size) {}

  std::size_t input_size() const noexcept override { return size_; }
  std::size_t output_size() const noexcept override { return size_; }

  void forward_batch(std::span<const double> in, std::span<double> out,
                     std::size_t batch) override;
  void backward_batch(std::span<const double> in,
                      std::span<const double> grad_out,
                      std::span<double> grad_in, std::size_t batch) override;

  std::span<double> parameters() noexcept override { return {}; }
  std::span<const double> parameters() const noexcept override { return {}; }
  std::span<double> gradients() noexcept override { return {}; }

  std::unique_ptr<Layer> clone() const override;
  std::string spec() const override;

 private:
  std::size_t size_;
};

}  // namespace minicost::nn
