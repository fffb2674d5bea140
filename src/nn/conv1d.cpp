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

// Forward kernel of forward_batch and forward_batch_relu: filters outer,
// kF in flight, each filter's positions in kLanes-wide tiles. A tile holds
// only independent outputs, each still summing bias, then taps in order
// (the reference order, DESIGN.md §7), so rows are the same bits on every
// ISA (FP contraction is off here). Each filter's outputs are one
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

// Tap-gradient tiles of the batched backward: a vector spans 4
// consecutive taps of one filter, so both its x window
// (x_b[p + k0 .. p + k0 + 4)) and its accumulator (wg[f][k0 .. k0 + 4),
// the f-major tap layout) are unit-stride. memcpy loads and stores: rows
// carry no alignment beyond double's.
typedef double Taps4 __attribute__((vector_size(4 * sizeof(double))));

// Tap grads wg[f][k0 .. k0 + |V|) of kF filters from f0 and, when `bg` is
// not null, their bias grads: every (row b, position p) in ascending order
// adds g_b[f][p] * x_b[p + k] to each tap and g_b[f][p] to the bias — the
// reference sequence for each of those accumulators. The kF filters'
// accumulators are independent, so their chains run side by side and each
// x window loaded feeds all kF filters. The bias sums run
// unconditionally (a branch in the inner loop costs more than the adds)
// and are stored only for the tile that owns them.
template <class V, std::size_t kF>
[[gnu::always_inline]] inline void conv_param_tile(
    const double* g, const double* x, std::size_t input, std::size_t pos,
    std::size_t kernel, std::size_t out_width, std::size_t batch,
    std::size_t f0, std::size_t k0, double* wg, double* bg) {
  V acc[kF];
  double bias[kF];
  for (std::size_t j = 0; j < kF; ++j) {
    std::memcpy(&acc[j], wg + (f0 + j) * kernel + k0, sizeof(V));
    bias[j] = bg != nullptr ? bg[f0 + j] : 0.0;
  }
  for (std::size_t b = 0; b < batch; ++b) {
    const double* gb = g + b * out_width + f0 * pos;
    const double* xb = x + b * input + k0;
    for (std::size_t p = 0; p < pos; ++p) {
      V xv;
      std::memcpy(&xv, xb + p, sizeof(V));
      for (std::size_t j = 0; j < kF; ++j) {
        const double gfp = gb[j * pos + p];
        acc[j] += gfp * xv;
        bias[j] += gfp;
      }
    }
  }
  for (std::size_t j = 0; j < kF; ++j) {
    std::memcpy(wg + (f0 + j) * kernel + k0, &acc[j], sizeof(V));
    if (bg != nullptr) bg[f0 + j] = bias[j];
  }
}

// All taps of kF filters from f0: tiles of 4 taps, then single taps; the
// bias rides along with the first tile.
template <std::size_t kF>
[[gnu::always_inline]] inline void conv_param_grads(
    const double* g, const double* x, std::size_t input, std::size_t pos,
    std::size_t kernel, std::size_t out_width, std::size_t batch,
    std::size_t f0, double* wg, double* bg) {
  std::size_t k0 = 0;
  for (; k0 + 4 <= kernel; k0 += 4)
    conv_param_tile<Taps4, kF>(g, x, input, pos, kernel, out_width, batch, f0,
                               k0, wg, k0 == 0 ? bg : nullptr);
  for (; k0 < kernel; ++k0)
    conv_param_tile<double, kF>(g, x, input, pos, kernel, out_width, batch,
                                f0, k0, wg, k0 == 0 ? bg : nullptr);
}

// Batched backward over the convolution block: every parameter
// accumulator sees its contributions in lexicographic (row, position)
// order, the reference order (DESIGN.md §7), and SIMD runs only across
// independent accumulators:
//  * tap grads    — SIMD across the taps of one filter, register-blocked
//    over kF filters (conv_param_tile); (b, p) ascend inside;
//  * bias grads   — one scalar chain per filter in the same loop, fed by
//    the g values the taps already loaded.
// Both read g in its own f-major layout and write the f-major tap grads in
// place: no transposed copies. Vectorizing across filters instead would
// need g position-major, a batch-sized transpose per call that cost more
// than the arithmetic, and its one chain per (tap, filter tile) of
// batch * pos adds left the loop bound by add latency. FP contraction is
// off for this translation unit, so every dispatch lane rounds alike.
MINICOST_TARGET_CLONES void conv_backward(
    const double* g, const double* x, std::size_t input, std::size_t prefix,
    std::size_t filters, std::size_t kernel, std::size_t out_width,
    std::size_t batch, double* wg, double* bg) {
  constexpr std::size_t kF = 8;
  const std::size_t pos = prefix - kernel + 1;
  std::size_t f0 = 0;
  for (; f0 + kF <= filters; f0 += kF)
    conv_param_grads<kF>(g, x, input, pos, kernel, out_width, batch, f0, wg,
                         bg);
  for (; f0 < filters; ++f0)
    conv_param_grads<1>(g, x, input, pos, kernel, out_width, batch, f0, wg,
                        bg);
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

void Conv1DOverPrefix::backward_batch(std::span<const double> in,
                                      std::span<const double> grad_out,
                                      std::span<double> grad_in,
                                      std::size_t batch) {
  if (!grad_in.empty())
    throw std::logic_error(
        "Conv1DOverPrefix::backward_batch: the conv is the input layer and "
        "has no input gradients");
  assert(in.size() == batch * input_ &&
         grad_out.size() == batch * output_size());
  conv_backward(grad_out.data(), in.data(), input_, prefix_, filters_, kernel_,
                output_size(), batch, grads_.data(),
                grads_.data() + bias_offset());
}

std::unique_ptr<Layer> Conv1DOverPrefix::clone() const {
  return std::make_unique<Conv1DOverPrefix>(*this);
}

std::string Conv1DOverPrefix::spec() const {
  return "conv1d " + std::to_string(input_) + " " + std::to_string(prefix_) +
         " " + std::to_string(filters_) + " " + std::to_string(kernel_);
}

}  // namespace minicost::nn
