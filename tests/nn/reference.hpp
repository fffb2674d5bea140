#pragma once
// Scalar reference math for the nn layers: the definition the row kernels
// must match to 0 ULP (DESIGN.md §7). One input row at a time, straight
// loops in the reference order (bias first, inputs or taps ascending), read
// from a layer's const parameters(); no caches, nothing kept between calls.
// Several rows in ascending order are the reference for a batch.

#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"

namespace minicost::nn::reference {

/// One row through a Dense, Conv1DOverPrefix or Relu layer.
std::vector<double> forward(const Layer& layer, std::span<const double> in);

/// One row's backward through the same layers: accumulates parameter
/// gradients into `grads` (the layer's parameters() layout) and, unless
/// `grad_in` is empty, writes dL/d(in). The conv computes no dL/d(in).
void backward(const Layer& layer, std::span<const double> in,
              std::span<const double> grad_out, std::span<double> grads,
              std::span<double> grad_in);

/// One row through every layer of `net`, unfused.
std::vector<double> forward(const Network& net, std::span<const double> in);

/// One row's forward and backward through `net`: accumulates every layer's
/// parameter gradients into `grads` (the snapshot_parameters() layout).
void backward(const Network& net, std::span<const double> in,
              std::span<const double> grad_out, std::span<double> grads);

}  // namespace minicost::nn::reference
