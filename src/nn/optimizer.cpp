#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/kernel_dispatch.hpp"

namespace minicost::nn {
namespace {

void check_sizes(std::span<double> params, std::span<const double> grads,
                 std::vector<double>& state) {
  if (params.size() != grads.size())
    throw std::invalid_argument("Optimizer::step: params/grads size mismatch");
  if (state.empty()) state.assign(params.size(), 0.0);
  if (state.size() != params.size())
    throw std::invalid_argument("Optimizer::step: parameter count changed");
}

// In-place update kernels. Each parameter's update is elementwise —
// independent of every other parameter's — so vectorizing across i keeps
// each element's operation sequence unchanged and the results bit-identical
// to the scalar loop on every dispatch tier (DESIGN.md §7).

MINICOST_TARGET_CLONES
void sgd_step_kernel(double* params, const double* grads, double* velocity,
                     std::size_t n, double lr, double momentum) {
  for (std::size_t i = 0; i < n; ++i) {
    velocity[i] = momentum * velocity[i] - lr * grads[i];
    params[i] += velocity[i];
  }
}

MINICOST_TARGET_CLONES
void rmsprop_step_kernel(double* params, const double* grads,
                         double* mean_square, std::size_t n, double lr,
                         double decay, double epsilon) {
  for (std::size_t i = 0; i < n; ++i) {
    mean_square[i] = decay * mean_square[i] + (1.0 - decay) * grads[i] * grads[i];
    params[i] -= lr * grads[i] / (std::sqrt(mean_square[i]) + epsilon);
  }
}

}  // namespace

Sgd::Sgd(double lr, double momentum) : Optimizer(lr), momentum_(momentum) {}

void Sgd::step(std::span<double> params, std::span<const double> grads) {
  check_sizes(params, grads, velocity_);
  sgd_step_kernel(params.data(), grads.data(), velocity_.data(), params.size(),
                  lr_, momentum_);
}

RmsProp::RmsProp(double lr, double decay, double epsilon)
    : Optimizer(lr), decay_(decay), epsilon_(epsilon) {}

void RmsProp::step(std::span<double> params, std::span<const double> grads) {
  check_sizes(params, grads, mean_square_);
  rmsprop_step_kernel(params.data(), grads.data(), mean_square_.data(),
                      params.size(), lr_, decay_, epsilon_);
}

}  // namespace minicost::nn
