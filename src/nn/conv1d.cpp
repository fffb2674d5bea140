#include "nn/conv1d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "nn/kernel_dispatch.hpp"

namespace minicost::nn {
namespace {

// Forward kernel of forward_batch and forward_batch_relu, in forward()'s
// loop order: filters outer, kF in flight, each filter's positions in
// kLanes-wide tiles. A tile holds only independent outputs, each still
// summing bias, then taps in order, so rows are bit-identical to forward()
// on every ISA (FP contraction is off here). Each filter's outputs are one
// unit-stride run; when kLanes does not divide pos, the last tile starts at
// pos - kLanes and recomputes identical values, so no store leaves the conv
// block. `xw` is the row's prefix, zero-padded so whole tiles can load.
// Explicit vectors, because GCC autovectorizes this nest into in-order
// scalar tap reductions (~10x slower). `relu` ANDs a tile with a bit mask
// of Relu's select (sign clear, bits <= +inf's: NaN and -0.0 become +0.0);
// GCC splits a double compare into scalar ones on AVX2 and baseline.
constexpr std::size_t kLanes = 8;
typedef double Tile __attribute__((vector_size(kLanes * sizeof(double))));
typedef std::uint64_t TileBits __attribute__((vector_size(sizeof(Tile))));
constexpr std::uint64_t kPosInfBits = 0x7FF0000000000000;

template <std::size_t kF>
[[gnu::always_inline]] inline void conv_filters(
    const double* w, const double* bias, const double* xw, std::size_t pos,
    std::size_t kernel, bool relu, double* y) {
  const std::size_t last = pos < kLanes ? 0 : pos - kLanes;
  for (std::size_t p0 = 0; p0 < pos; p0 += kLanes) {
    const std::size_t p = std::min(p0, last);
    Tile acc[kF];  // splat: b - (+0.0) is exactly b, -0.0 and NaN included
    for (std::size_t j = 0; j < kF; ++j) acc[j] = bias[j] - Tile{};
    for (std::size_t k = 0; k < kernel; ++k) {
      Tile xv;
      std::memcpy(&xv, xw + p + k, sizeof(Tile));
      for (std::size_t j = 0; j < kF; ++j) acc[j] += xv * w[j * kernel + k];
    }
    for (std::size_t j = 0; j < kF; ++j) {
      TileBits u = (TileBits)acc[j];
      if (relu) u &= ((u >> 63) | ((kPosInfBits - u) >> 63)) - std::uint64_t{1};
      if (pos >= kLanes)
        std::memcpy(y + j * pos + p, &u, sizeof(Tile));
      else
        std::memcpy(y + j * pos, &u, pos * sizeof(double));
    }
  }
}

MINICOST_TARGET_CLONES void conv_forward(
    const double* w, const double* bias, const double* x, std::size_t input,
    std::size_t prefix, std::size_t filters, std::size_t kernel,
    std::size_t out_width, std::size_t batch, bool relu, double* y) {
  constexpr std::size_t kF = 4;
  const std::size_t pos = prefix - kernel + 1;
  std::vector<double> xw(std::max(prefix, kLanes + kernel - 1), 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy_n(x + b * input, prefix, xw.begin());
    double* yb = y + b * out_width;
    std::size_t f = 0;
    for (; f + kF <= filters; f += kF)
      conv_filters<kF>(w + f * kernel, bias + f, xw.data(), pos, kernel, relu,
                       yb + f * pos);
    for (; f < filters; ++f)
      conv_filters<1>(w + f * kernel, bias + f, xw.data(), pos, kernel, relu,
                      yb + f * pos);
    // Aux features pass through; a fused Relu covers them too.
    for (std::size_t a = prefix; a < input; ++a) {
      const double v = x[b * input + a];
      yb[filters * pos + a - prefix] = relu ? (v > 0.0 ? v : 0.0) : v;
    }
  }
}

// Batched backward over the convolution block. Scalar backward() walks
// (filter f, position p) with p inner, so every parameter accumulator sees
// its contributions in lexicographic (row, position) order; this kernel
// preserves exactly that order per accumulator and vectorizes only across
// independent accumulators (DESIGN.md §7):
//  * bias grads   — SIMD across filters; (b, p) ascend inside. Needs the
//    incoming grads position-major (`gt`, batch x pos x filters) so the
//    filter dimension is unit-stride — a transpose the caller does with
//    copies, never arithmetic;
//  * tap grads    — per tap k, SIMD across filters into the transposed
//    accumulator `wgt` (kernel x filters); (b, p) ascend inside, each
//    contribution the same single g*x multiply-add as the scalar pass;
//  * input grads  — per row, from the ORIGINAL f-major grad rows `g`:
//    filters ascend and taps DESCEND, which makes each input element j
//    receive its window's contributions at ascending positions p = j - k,
//    the scalar order; SIMD is across j (independent elements), and the
//    conv region is zeroed first exactly like the scalar pass.
// `gx` may be null when the caller has no consumer for dL/d(in) (the conv
// is the bottom layer); the whole input-gradient family is skipped then.
// Unlike the other batch kernels this one is NOT target_clones'd: the conv
// trip counts (pos ~ prefix - kernel + 1, kernel ~ 4) are too short for
// wide vectors, and measured at the trunk geometry the avx512 clone runs
// 2x slower and the avx2 clone 3.5x slower than what plain -O3 emits here.
// FP contraction is off for this translation unit, so it still rounds
// identically to the scalar pass.
void conv_backward(
    const double* w, const double* gt, const double* g, const double* x,
    std::size_t input, std::size_t prefix, std::size_t filters,
    std::size_t kernel, std::size_t out_width, std::size_t batch, double* wgt,
    double* bg, double* gx) {
  constexpr std::size_t kTile = 16;
  const std::size_t pos = prefix - kernel + 1;
  std::size_t f0 = 0;
  for (; f0 + kTile <= filters; f0 += kTile) {
    double acc[kTile];
    for (std::size_t j = 0; j < kTile; ++j) acc[j] = bg[f0 + j];
    for (std::size_t b = 0; b < batch; ++b) {
      const double* gtb = gt + b * pos * filters;
      for (std::size_t p = 0; p < pos; ++p) {
        const double* gp = gtb + p * filters + f0;
        for (std::size_t j = 0; j < kTile; ++j) acc[j] += gp[j];
      }
    }
    for (std::size_t j = 0; j < kTile; ++j) bg[f0 + j] = acc[j];
  }
  for (; f0 < filters; ++f0) {
    double sum = bg[f0];
    for (std::size_t b = 0; b < batch; ++b)
      for (std::size_t p = 0; p < pos; ++p)
        sum += gt[b * pos * filters + p * filters + f0];
    bg[f0] = sum;
  }
  for (std::size_t k = 0; k < kernel; ++k) {
    double* wgk = wgt + k * filters;
    std::size_t f1 = 0;
    for (; f1 + kTile <= filters; f1 += kTile) {
      double acc[kTile];
      for (std::size_t j = 0; j < kTile; ++j) acc[j] = wgk[f1 + j];
      for (std::size_t b = 0; b < batch; ++b) {
        const double* gtb = gt + b * pos * filters;
        const double* xb = x + b * input;
        for (std::size_t p = 0; p < pos; ++p) {
          const double xk = xb[p + k];
          const double* gp = gtb + p * filters + f1;
          for (std::size_t j = 0; j < kTile; ++j) acc[j] += gp[j] * xk;
        }
      }
      for (std::size_t j = 0; j < kTile; ++j) wgk[f1 + j] = acc[j];
    }
    for (; f1 < filters; ++f1) {
      double sum = wgk[f1];
      for (std::size_t b = 0; b < batch; ++b) {
        const double* xb = x + b * input;
        for (std::size_t p = 0; p < pos; ++p)
          sum += gt[b * pos * filters + p * filters + f1] * xb[p + k];
      }
      wgk[f1] = sum;
    }
  }
  if (gx == nullptr) return;
  for (std::size_t b = 0; b < batch; ++b) {
    const double* gb = g + b * out_width;
    double* gxb = gx + b * input;
    for (std::size_t i = 0; i < prefix; ++i) gxb[i] = 0.0;
    for (std::size_t f = 0; f < filters; ++f) {
      const double* gf = gb + f * pos;
      const double* wf = w + f * kernel;
      for (std::size_t k = kernel; k-- > 0;) {
        const double wk = wf[k];
        double* dst = gxb + k;
        std::size_t p0 = 0;
        for (; p0 + kTile <= pos; p0 += kTile) {
          for (std::size_t j = 0; j < kTile; ++j)
            dst[p0 + j] += gf[p0 + j] * wk;
        }
        for (; p0 < pos; ++p0) dst[p0] += gf[p0] * wk;
      }
    }
  }
}

}  // namespace

Conv1DOverPrefix::Conv1DOverPrefix(std::size_t input_size,
                                   std::size_t prefix_len, std::size_t filters,
                                   std::size_t kernel, util::Rng& rng)
    : input_(input_size),
      prefix_(prefix_len),
      filters_(filters),
      kernel_(kernel),
      params_(filters * kernel + filters),
      grads_(params_.size(), 0.0) {
  if (kernel == 0 || filters == 0)
    throw std::invalid_argument("Conv1DOverPrefix: zero kernel or filters");
  if (prefix_len > input_size)
    throw std::invalid_argument("Conv1DOverPrefix: prefix exceeds input");
  if (kernel > prefix_len)
    throw std::invalid_argument("Conv1DOverPrefix: kernel exceeds prefix");
  const double bound = std::sqrt(6.0 / static_cast<double>(kernel));
  for (std::size_t i = 0; i < filters * kernel; ++i)
    params_[i] = rng.uniform(-bound, bound);
}

void Conv1DOverPrefix::forward(std::span<const double> in,
                               std::span<double> out) {
  assert(in.size() == input_ && out.size() == output_size());
  cached_input_.assign(in.begin(), in.end());
  const std::size_t pos = positions();
  const double* bias = params_.data() + bias_offset();
  for (std::size_t f = 0; f < filters_; ++f) {
    const double* w = params_.data() + f * kernel_;
    for (std::size_t x = 0; x < pos; ++x) {
      double sum = bias[f];
      for (std::size_t k = 0; k < kernel_; ++k) sum += w[k] * in[x + k];
      out[f * pos + x] = sum;
    }
  }
  // Aux features pass through after the convolution block.
  for (std::size_t a = 0; a < aux(); ++a)
    out[filters_ * pos + a] = in[prefix_ + a];
}

void Conv1DOverPrefix::forward_batch(std::span<const double> in,
                                     std::span<double> out,
                                     std::size_t batch) {
  assert(in.size() == batch * input_ && out.size() == batch * output_size());
  conv_forward(params_.data(), params_.data() + bias_offset(), in.data(),
               input_, prefix_, filters_, kernel_, output_size(), batch,
               /*relu=*/false, out.data());
}

bool Conv1DOverPrefix::forward_batch_relu(std::span<const double> in,
                                          std::span<double> out,
                                          std::size_t batch) {
  assert(in.size() == batch * input_ && out.size() == batch * output_size());
  conv_forward(params_.data(), params_.data() + bias_offset(), in.data(),
               input_, prefix_, filters_, kernel_, output_size(), batch,
               /*relu=*/true, out.data());
  return true;
}

void Conv1DOverPrefix::backward(std::span<const double> grad_out,
                                std::span<double> grad_in) {
  assert(grad_out.size() == output_size() && grad_in.size() == input_);
  assert(cached_input_.size() == input_ && "backward without forward");
  const std::size_t pos = positions();
  for (std::size_t i = 0; i < input_; ++i) grad_in[i] = 0.0;
  double* bias_grad = grads_.data() + bias_offset();
  for (std::size_t f = 0; f < filters_; ++f) {
    const double* w = params_.data() + f * kernel_;
    double* wg = grads_.data() + f * kernel_;
    for (std::size_t x = 0; x < pos; ++x) {
      const double g = grad_out[f * pos + x];
      bias_grad[f] += g;
      for (std::size_t k = 0; k < kernel_; ++k) {
        wg[k] += g * cached_input_[x + k];
        grad_in[x + k] += g * w[k];
      }
    }
  }
  for (std::size_t a = 0; a < aux(); ++a)
    grad_in[prefix_ + a] = grad_out[filters_ * pos + a];
}

void Conv1DOverPrefix::backward_batch(std::span<const double> in,
                                      std::span<const double> grad_out,
                                      std::span<double> grad_in,
                                      std::size_t batch) {
  assert(in.size() == batch * input_ &&
         grad_out.size() == batch * output_size() &&
         (grad_in.empty() || grad_in.size() == batch * input_));
  const std::size_t pos = positions();
  const std::size_t out_width = output_size();
  // Transpose each row's conv block to position-major (pos x filters) so
  // the kernel's bias/tap accumulations are unit-stride across filters.
  // Copies only — no arithmetic, so nothing rounds. p outer / f inner makes
  // the writes unit-stride (the strided side reads, which prefetches
  // better than strided stores).
  batch_gt_.resize(batch * pos * filters_);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* gb = grad_out.data() + b * out_width;
    double* gtb = batch_gt_.data() + b * pos * filters_;
    for (std::size_t p = 0; p < pos; ++p)
      for (std::size_t f = 0; f < filters_; ++f)
        gtb[p * filters_ + f] = gb[f * pos + p];
  }
  // Tap gradients accumulate in a transposed scratch (kernel x filters) so
  // the kernel can vectorize across filters; exact copy round-trip.
  batch_wgt_.resize(kernel_ * filters_);
  for (std::size_t f = 0; f < filters_; ++f)
    for (std::size_t k = 0; k < kernel_; ++k)
      batch_wgt_[k * filters_ + f] = grads_[f * kernel_ + k];
  conv_backward(params_.data(), batch_gt_.data(), grad_out.data(), in.data(),
                input_, prefix_, filters_, kernel_, out_width, batch,
                batch_wgt_.data(), grads_.data() + bias_offset(),
                grad_in.empty() ? nullptr : grad_in.data());
  for (std::size_t f = 0; f < filters_; ++f)
    for (std::size_t k = 0; k < kernel_; ++k)
      grads_[f * kernel_ + k] = batch_wgt_[k * filters_ + f];
  if (grad_in.empty()) return;
  // Aux features pass their gradient straight through, as in backward().
  for (std::size_t b = 0; b < batch; ++b) {
    const double* gb = grad_out.data() + b * out_width;
    double* gxb = grad_in.data() + b * input_;
    for (std::size_t a = 0; a < aux(); ++a)
      gxb[prefix_ + a] = gb[filters_ * pos + a];
  }
}

std::unique_ptr<Layer> Conv1DOverPrefix::clone() const {
  auto copy = std::make_unique<Conv1DOverPrefix>(*this);
  copy->cached_input_.clear();
  return copy;
}

std::string Conv1DOverPrefix::spec() const {
  return "conv1d " + std::to_string(input_) + " " + std::to_string(prefix_) +
         " " + std::to_string(filters_) + " " + std::to_string(kernel_);
}

}  // namespace minicost::nn
