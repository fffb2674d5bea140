#include "nn/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "nn/kernel_dispatch.hpp"

namespace minicost::nn {
namespace {

// One block of kRows rows over the input slice [i0, iend): every output
// element of every row continues its own accumulation — from the bias on
// the first slice, from the partial sum parked in y otherwise — and the
// last slice stores the finished value. Output neurons go in fixed-width
// register tiles (constant-trip inner loops promote acc[kRows][kTile] out
// of memory); each weight vector loaded feeds all kRows rows. Outputs past
// the last full tile are scalar per element, rows still side by side. With
// `relu`, the last slice stores the Relu layer's select (x > 0.0 ? x : 0.0),
// so NaN and -0.0 map to +0.0 exactly as Relu::forward() maps them.
template <std::size_t kRows>
[[gnu::always_inline]] inline void dense_rows(
    const double* wt, const double* bias, const double* x, std::size_t in,
    std::size_t out, std::size_t i0, std::size_t iend, bool relu, double* y) {
  constexpr std::size_t kTile = 32;
  const double* src = i0 == 0 ? bias : y;
  const std::size_t src_stride = i0 == 0 ? 0 : out;
  const bool clamp = relu && iend == in;
  std::size_t o0 = 0;
  for (; o0 + kTile <= out; o0 += kTile) {
    double acc[kRows][kTile];
    for (std::size_t r = 0; r < kRows; ++r)
      for (std::size_t j = 0; j < kTile; ++j)
        acc[r][j] = src[r * src_stride + o0 + j];
    for (std::size_t i = i0; i < iend; ++i) {
      const double* w = wt + i * out + o0;
      for (std::size_t r = 0; r < kRows; ++r) {
        const double xi = x[r * in + i];
        for (std::size_t j = 0; j < kTile; ++j) acc[r][j] += xi * w[j];
      }
    }
    if (clamp) {
      for (std::size_t r = 0; r < kRows; ++r)
        for (std::size_t j = 0; j < kTile; ++j)
          acc[r][j] = acc[r][j] > 0.0 ? acc[r][j] : 0.0;
    }
    for (std::size_t r = 0; r < kRows; ++r)
      for (std::size_t j = 0; j < kTile; ++j) y[r * out + o0 + j] = acc[r][j];
  }
  for (; o0 < out; ++o0) {
    double sum[kRows];
    for (std::size_t r = 0; r < kRows; ++r) sum[r] = src[r * src_stride + o0];
    for (std::size_t i = i0; i < iend; ++i) {
      const double w = wt[i * out + o0];
      for (std::size_t r = 0; r < kRows; ++r) sum[r] += x[r * in + i] * w;
    }
    for (std::size_t r = 0; r < kRows; ++r)
      y[r * out + o0] = clamp ? (sum[r] > 0.0 ? sum[r] : 0.0) : sum[r];
  }
}

// Per row b: y[o] = bias[o] + sum_i x[i] * wt[i][o], with wt the transposed
// weight matrix (in x out). Only independent output elements are computed
// side by side — output neurons (the unit-stride SIMD dimension) and rows —
// while each element still accumulates bias first and inputs 0..in-1 in
// ascending order, exactly like the scalar forward(). Rows are therefore
// bit-identical to per-row forward() calls on every ISA (FP contraction is
// off for this translation unit). Row-major in and out; no strided stores.
// Blocking, outermost first:
//  * inputs in kIBlk slices with the batch loop inside, so the active wt
//    slice (kIBlk x out doubles) stays L1-resident across the whole batch
//    instead of streaming the full matrix from L2 once per row. Partial
//    sums ride in the output rows between slices — an exact round-trip;
//  * rows in blocks of kRows (dense_rows): one row alone keeps only
//    kTile / vector-width add chains in flight and spends a weight load on
//    every multiply-add, so it is bound by load and add latency; four rows
//    share each load and quadruple the independent chains. Rows past the
//    last full block run the same loops one at a time.
// `relu` stores relu(y) instead of y (Network::forward_batch fuses a
// following Relu layer here); partial sums between slices stay raw.
MINICOST_TARGET_CLONES void gemm_wt_row_major(const double* wt,
                                              const double* bias,
                                              const double* x, std::size_t in,
                                              std::size_t out,
                                              std::size_t batch, bool relu,
                                              double* y) {
  constexpr std::size_t kRows = 4;
  constexpr std::size_t kIBlk = 64;
  for (std::size_t i0 = 0;; i0 += kIBlk) {
    const std::size_t iend = std::min(in, i0 + kIBlk);
    std::size_t b = 0;
    for (; b + kRows <= batch; b += kRows)
      dense_rows<kRows>(wt, bias, x + b * in, in, out, i0, iend, relu,
                        y + b * out);
    for (; b < batch; ++b)
      dense_rows<1>(wt, bias, x + b * in, in, out, i0, iend, relu,
                    y + b * out);
    if (iend == in) break;
  }
}

// Batched backward. The scalar backward() touches three accumulator
// families; each is vectorized here only across *independent* accumulators
// while its own floating-point sequence stays exactly that of `batch`
// sequential backward() calls (row 0 first):
//  * bias grads   — SIMD across outputs o; rows b ascend inside the tile;
//  * weight grads — per output o, SIMD across inputs i; rows b ascend
//    inside (each wg[o][i] sees g_b * x_b[i] in row order);
//  * input grads  — per row, SIMD across inputs i; outputs o ascend from
//    0.0, the order the scalar pass accumulates grad_in.
// No transposes are needed: g is out-major per row and x/gx are in-major,
// so every inner loop is already unit-stride in its SIMD dimension. In the
// weight/input families the i-tile loop sits OUTSIDE the o / b loop: the
// active x and w slices (batch x kTile, out x kTile) then stay
// cache-resident across every output / row instead of re-streaming the
// whole matrix from L2 once per output (~25% faster at the trunk geometry,
// 2x at batch 64). The interchange only reorders work across independent
// accumulators — each accumulator's own b- or o-ascending FP sequence is
// untouched. gx may be null when the caller has no consumer for dL/d(in)
// (bottom layer); parameter gradients are identical either way. FP
// contraction is off for this translation unit, so each multiply-then-add
// rounds like the scalar code and all dispatch lanes agree bit-for-bit.
MINICOST_TARGET_CLONES void dense_backward(const double* w, const double* x,
                                           const double* g, std::size_t in,
                                           std::size_t out, std::size_t batch,
                                           double* wg, double* bg, double* gx) {
  constexpr std::size_t kTile = 32;
  std::size_t o0 = 0;
  for (; o0 + kTile <= out; o0 += kTile) {
    double acc[kTile];
    for (std::size_t j = 0; j < kTile; ++j) acc[j] = bg[o0 + j];
    for (std::size_t b = 0; b < batch; ++b) {
      const double* gb = g + b * out + o0;
      for (std::size_t j = 0; j < kTile; ++j) acc[j] += gb[j];
    }
    for (std::size_t j = 0; j < kTile; ++j) bg[o0 + j] = acc[j];
  }
  for (; o0 < out; ++o0) {
    double sum = bg[o0];
    for (std::size_t b = 0; b < batch; ++b) sum += g[b * out + o0];
    bg[o0] = sum;
  }
  std::size_t i0 = 0;
  for (; i0 + kTile <= in; i0 += kTile) {
    for (std::size_t o = 0; o < out; ++o) {
      double* wgo = wg + o * in;
      double acc[kTile];
      for (std::size_t j = 0; j < kTile; ++j) acc[j] = wgo[i0 + j];
      for (std::size_t b = 0; b < batch; ++b) {
        const double gbo = g[b * out + o];
        const double* xb = x + b * in + i0;
        for (std::size_t j = 0; j < kTile; ++j) acc[j] += gbo * xb[j];
      }
      for (std::size_t j = 0; j < kTile; ++j) wgo[i0 + j] = acc[j];
    }
  }
  for (; i0 < in; ++i0) {
    for (std::size_t o = 0; o < out; ++o) {
      double sum = wg[o * in + i0];
      for (std::size_t b = 0; b < batch; ++b)
        sum += g[b * out + o] * x[b * in + i0];
      wg[o * in + i0] = sum;
    }
  }
  if (gx == nullptr) return;
  i0 = 0;
  for (; i0 + kTile <= in; i0 += kTile) {
    for (std::size_t b = 0; b < batch; ++b) {
      const double* gb = g + b * out;
      double* gxb = gx + b * in;
      double acc[kTile];
      for (std::size_t j = 0; j < kTile; ++j) acc[j] = 0.0;
      for (std::size_t o = 0; o < out; ++o) {
        const double go = gb[o];
        const double* wo = w + o * in + i0;
        for (std::size_t j = 0; j < kTile; ++j) acc[j] += go * wo[j];
      }
      for (std::size_t j = 0; j < kTile; ++j) gxb[i0 + j] = acc[j];
    }
  }
  for (; i0 < in; ++i0) {
    for (std::size_t b = 0; b < batch; ++b) {
      const double* gb = g + b * out;
      double sum = 0.0;
      for (std::size_t o = 0; o < out; ++o) sum += gb[o] * w[o * in + i0];
      gx[b * in + i0] = sum;
    }
  }
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, util::Rng& rng)
    : in_(in), out_(out), params_(in * out + out), grads_(params_.size(), 0.0) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t i = 0; i < in * out; ++i)
    params_[i] = rng.uniform(-bound, bound);
  // biases start at zero (the tail of params_ is already zero-initialized)
}

void Dense::forward(std::span<const double> in, std::span<double> out) {
  assert(in.size() == in_ && out.size() == out_);
  cached_input_.assign(in.begin(), in.end());
  const double* bias = params_.data() + bias_offset();
  for (std::size_t o = 0; o < out_; ++o) {
    const double* row = params_.data() + o * in_;
    double sum = bias[o];
    for (std::size_t i = 0; i < in_; ++i) sum += row[i] * in[i];
    out[o] = sum;
  }
}

void Dense::forward_batch(std::span<const double> in, std::span<double> out,
                          std::size_t batch) {
  run_batch(in, out, batch, /*relu=*/false);
}

bool Dense::forward_batch_relu(std::span<const double> in,
                               std::span<double> out, std::size_t batch) {
  run_batch(in, out, batch, /*relu=*/true);
  return true;
}

void Dense::run_batch(std::span<const double> in, std::span<double> out,
                      std::size_t batch, bool relu) {
  assert(in.size() == batch * in_ && out.size() == batch * out_);
  // The scalar dot product is a serial FP-add chain the compiler may not
  // reassociate, so the batch kernel vectorizes across output neurons
  // instead. That needs the weights transposed, built once per parameter
  // change (parameters() marks it stale) rather than once per call: the
  // trainer forwards one row per rollout step, and at the trunk geometry
  // the transpose costs about five times that row. Blocked so both the
  // read and the write stay within a kB x kB tile — the naive loop strides
  // one full row per element on the store side and runs ~3x slower at the
  // trunk geometry. Copies only, nothing rounds.
  if (!wt_fresh_) {
    batch_wt_.resize(in_ * out_);
    constexpr std::size_t kB = 16;
    for (std::size_t o0 = 0; o0 < out_; o0 += kB) {
      const std::size_t oend = std::min(out_, o0 + kB);
      for (std::size_t i0 = 0; i0 < in_; i0 += kB) {
        const std::size_t iend = std::min(in_, i0 + kB);
        for (std::size_t o = o0; o < oend; ++o)
          for (std::size_t i = i0; i < iend; ++i)
            batch_wt_[i * out_ + o] = params_[o * in_ + i];
      }
    }
    wt_fresh_ = true;
  }
  gemm_wt_row_major(batch_wt_.data(), params_.data() + bias_offset(),
                    in.data(), in_, out_, batch, relu, out.data());
}

void Dense::backward(std::span<const double> grad_out,
                     std::span<double> grad_in) {
  assert(grad_out.size() == out_ && grad_in.size() == in_);
  assert(cached_input_.size() == in_ && "backward without forward");
  double* bias_grad = grads_.data() + bias_offset();
  for (std::size_t i = 0; i < in_; ++i) grad_in[i] = 0.0;
  for (std::size_t o = 0; o < out_; ++o) {
    const double g = grad_out[o];
    bias_grad[o] += g;
    double* weight_grad_row = grads_.data() + o * in_;
    const double* weight_row = params_.data() + o * in_;
    for (std::size_t i = 0; i < in_; ++i) {
      weight_grad_row[i] += g * cached_input_[i];
      grad_in[i] += g * weight_row[i];
    }
  }
}

void Dense::backward_batch(std::span<const double> in,
                           std::span<const double> grad_out,
                           std::span<double> grad_in, std::size_t batch) {
  assert(in.size() == batch * in_ && grad_out.size() == batch * out_ &&
         (grad_in.empty() || grad_in.size() == batch * in_));
  dense_backward(params_.data(), in.data(), grad_out.data(), in_, out_, batch,
                 grads_.data(), grads_.data() + bias_offset(),
                 grad_in.empty() ? nullptr : grad_in.data());
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(*this);
  copy->cached_input_.clear();
  return copy;
}

std::string Dense::spec() const {
  return "dense " + std::to_string(in_) + " " + std::to_string(out_);
}

}  // namespace minicost::nn
