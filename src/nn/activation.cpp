#include "nn/activation.hpp"

#include <cassert>

#include "nn/kernel_dispatch.hpp"

namespace minicost::nn {
namespace {

// Batch-sized ReLU loops, runtime-dispatched like the dense/conv kernels.
// The select is branch-free and elementwise (no accumulation), so every
// lane choice is trivially bit-identical to the reference — the clones
// exist purely because GCC's generic tuning emits scalar cmov sequences
// for these loops (~5x slower at trunk widths) while the per-ISA clones
// get masked vector moves.
MINICOST_TARGET_CLONES void relu_forward_kernel(const double* in, double* out,
                                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0.0 ? in[i] : 0.0;
}

MINICOST_TARGET_CLONES void relu_backward_kernel(const double* in,
                                                 const double* go, double* gi,
                                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) gi[i] = in[i] > 0.0 ? go[i] : 0.0;
}

}  // namespace

void Relu::forward_batch(std::span<const double> in, std::span<double> out,
                         std::size_t batch) {
  assert(in.size() == batch * size_ && out.size() == batch * size_);
  relu_forward_kernel(in.data(), out.data(), batch * size_);
}

void Relu::backward_batch(std::span<const double> in,
                          std::span<const double> grad_out,
                          std::span<double> grad_in, std::size_t batch) {
  assert(in.size() == batch * size_ && grad_out.size() == batch * size_ &&
         (grad_in.empty() || grad_in.size() == batch * size_));
  if (grad_in.empty()) return;  // parameterless: nothing else to compute
  relu_backward_kernel(in.data(), grad_out.data(), grad_in.data(),
                       batch * size_);
}

std::unique_ptr<Layer> Relu::clone() const {
  return std::make_unique<Relu>(size_);
}

std::string Relu::spec() const { return "relu " + std::to_string(size_); }

}  // namespace minicost::nn
