#include "nn/dense.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

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
// so NaN and -0.0 map to +0.0 exactly as the Relu layer maps them.
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
// ascending order, the reference order (DESIGN.md §7). Rows are therefore
// the same bits at every batch size and on every ISA (FP contraction is
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

// wt = W^T for W row-major out x in. The input loop is outermost, so each
// transposed row is written with unit-stride vector stores while the reads
// stride down a column of W. Copies only, nothing rounds.
MINICOST_TARGET_CLONES void transpose_weights(const double* w, std::size_t in,
                                              std::size_t out, double* wt) {
  for (std::size_t i = 0; i < in; ++i)
    for (std::size_t o = 0; o < out; ++o) wt[i * out + o] = w[o * in + i];
}

// GNU vector tiles for the batched backward: one vector per 8, 4 or 2
// doubles, plus plain double for the last odd input, so every input column
// runs vectorized. The widest type is one AVX-512 register; the AVX2 and
// baseline clones split it into halves or quarters. Loads and stores go
// through memcpy (the rows carry no alignment beyond double's).
typedef double V8 __attribute__((vector_size(8 * sizeof(double))));
typedef double V4 __attribute__((vector_size(4 * sizeof(double))));
typedef double V2 __attribute__((vector_size(2 * sizeof(double))));

template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// Weight grads of kO outputs from o0 over the inputs [i0, i0 + kQ * |V|):
// wg[o][i] += g_b[o] * x_b[i] for rows b ascending, the reference order of
// every element. The kO x kQ accumulators are independent, so they keep
// kO * kQ add chains in flight, and each x vector loaded feeds kO outputs.
template <class V, std::size_t kQ, std::size_t kO>
[[gnu::always_inline]] inline void weight_grad_tile(
    const double* x, const double* g, std::size_t in, std::size_t out,
    std::size_t batch, std::size_t i0, std::size_t o0, double* wg) {
  constexpr std::size_t kW = sizeof(V) / sizeof(double);
  V acc[kO][kQ];
  for (std::size_t r = 0; r < kO; ++r)
    for (std::size_t q = 0; q < kQ; ++q)
      load(acc[r][q], wg + (o0 + r) * in + i0 + q * kW);
  for (std::size_t b = 0; b < batch; ++b) {
    V xv[kQ];
    for (std::size_t q = 0; q < kQ; ++q)
      load(xv[q], x + b * in + i0 + q * kW);
    for (std::size_t r = 0; r < kO; ++r) {
      const double gbo = g[b * out + o0 + r];
      for (std::size_t q = 0; q < kQ; ++q) acc[r][q] += gbo * xv[q];
    }
  }
  for (std::size_t r = 0; r < kO; ++r)
    for (std::size_t q = 0; q < kQ; ++q)
      store(wg + (o0 + r) * in + i0 + q * kW, acc[r][q]);
}

// Input grads of kR rows from b0 over the same input columns: each starts
// at 0.0 and adds g_b[o] * w[o][i] for outputs o ascending, the reference
// order. Each w vector loaded feeds kR rows.
template <class V, std::size_t kQ, std::size_t kR>
[[gnu::always_inline]] inline void input_grad_tile(
    const double* w, const double* g, std::size_t in, std::size_t out,
    std::size_t i0, std::size_t b0, double* gx) {
  constexpr std::size_t kW = sizeof(V) / sizeof(double);
  V acc[kR][kQ];
  for (std::size_t r = 0; r < kR; ++r)
    for (std::size_t q = 0; q < kQ; ++q) acc[r][q] = V{};
  for (std::size_t o = 0; o < out; ++o) {
    V wv[kQ];
    for (std::size_t q = 0; q < kQ; ++q)
      load(wv[q], w + o * in + i0 + q * kW);
    for (std::size_t r = 0; r < kR; ++r) {
      const double gbo = g[(b0 + r) * out + o];
      for (std::size_t q = 0; q < kQ; ++q) acc[r][q] += gbo * wv[q];
    }
  }
  for (std::size_t r = 0; r < kR; ++r)
    for (std::size_t q = 0; q < kQ; ++q)
      store(gx + (b0 + r) * in + i0 + q * kW, acc[r][q]);
}

// Both gradient families over one column tile, in register blocks of four
// outputs (weight grads) and four rows (input grads); outputs and rows past
// the last block of four run one at a time.
template <class V, std::size_t kQ>
[[gnu::always_inline]] inline void backward_columns(
    const double* w, const double* x, const double* g, std::size_t in,
    std::size_t out, std::size_t batch, std::size_t i0, double* wg,
    double* gx) {
  constexpr std::size_t kBlock = 4;
  std::size_t o = 0;
  for (; o + kBlock <= out; o += kBlock)
    weight_grad_tile<V, kQ, kBlock>(x, g, in, out, batch, i0, o, wg);
  for (; o < out; ++o) weight_grad_tile<V, kQ, 1>(x, g, in, out, batch, i0, o, wg);
  if (gx == nullptr) return;
  std::size_t b = 0;
  for (; b + kBlock <= batch; b += kBlock)
    input_grad_tile<V, kQ, kBlock>(w, g, in, out, i0, b, gx);
  for (; b < batch; ++b) input_grad_tile<V, kQ, 1>(w, g, in, out, i0, b, gx);
}

// Batched backward over three accumulator families; each is vectorized
// only across *independent* accumulators while its own floating-point
// sequence stays the reference order (DESIGN.md §7), rows ascending:
//  * bias grads   — SIMD across outputs o; rows b ascend inside the tile;
//  * weight grads — SIMD across inputs i, register-blocked over four
//    outputs; rows b ascend inside (each wg[o][i] sees g_b * x_b[i] in row
//    order);
//  * input grads  — SIMD across inputs i, register-blocked over four rows;
//    outputs o ascend from 0.0.
// Blocking runs across outputs and rows, never within one accumulator: a
// block of four turns the one chain per vector that a single output or row
// gives into four, which hides the add latency that bounds the unblocked
// loop, and shares each x or w load between them. No transposes are
// needed: g is out-major per row and x/gx/w are in-major, so every vector
// is unit-stride. Input columns go in tiles of 32, then tiles of 8, then
// at most one each of 4, 2 and 1 (366 = 11 x 32 + 8 + 4 + 2); the
// column-tile loop sits outside the output and row loops, so the active x
// and w slices stay in L1 across them. gx may be null when the caller has
// no consumer for dL/d(in) (bottom layer); parameter gradients are
// identical either way. FP contraction is off for this translation unit,
// so each multiply-then-add rounds twice, like the reference, and all
// dispatch lanes agree bit-for-bit.
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
  for (; i0 + kTile <= in; i0 += kTile)
    backward_columns<V8, 4>(w, x, g, in, out, batch, i0, wg, gx);
  for (; i0 + 8 <= in; i0 += 8)
    backward_columns<V8, 1>(w, x, g, in, out, batch, i0, wg, gx);
  if (i0 + 4 <= in) {
    backward_columns<V4, 1>(w, x, g, in, out, batch, i0, wg, gx);
    i0 += 4;
  }
  if (i0 + 2 <= in) {
    backward_columns<V2, 1>(w, x, g, in, out, batch, i0, wg, gx);
    i0 += 2;
  }
  if (i0 < in) backward_columns<double, 1>(w, x, g, in, out, batch, i0, wg, gx);
}

}  // namespace

Dense::Dense(std::size_t in, std::size_t out, util::Rng& rng)
    : in_(in), out_(out), params_(in * out + out), grads_(params_.size(), 0.0) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in));
  for (std::size_t i = 0; i < in * out; ++i)
    params_[i] = rng.uniform(-bound, bound);
  // biases start at zero (the tail of params_ is already zero-initialized)
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
  // Each dot product is a serial FP-add chain the compiler may not
  // reassociate, so the batch kernel vectorizes across output neurons
  // instead. That needs the weights transposed, built once per parameter
  // change (parameters() marks it stale) rather than once per call: the
  // trainer forwards one row per rollout step, and every parameter sync
  // makes the next forward rebuild it.
  if (!wt_fresh_) {
    if (batch_wt_ == nullptr || batch_wt_.use_count() > 1)
      batch_wt_ = std::make_shared<std::vector<double>>(in_ * out_);
    transpose_weights(params_.data(), in_, out_, batch_wt_->data());
    wt_fresh_ = true;
  }
  gemm_wt_row_major(batch_wt_->data(), params_.data() + bias_offset(),
                    in.data(), in_, out_, batch, relu, out.data());
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
  return std::make_unique<Dense>(*this);
}

std::string Dense::spec() const {
  return "dense " + std::to_string(in_) + " " + std::to_string(out_);
}

}  // namespace minicost::nn
