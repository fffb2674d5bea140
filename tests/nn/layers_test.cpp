#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "reference.hpp"

namespace minicost::nn {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(DenseTest, ForwardComputesAffineMap) {
  util::Rng rng(1);
  Dense layer(2, 2, rng);
  // Overwrite params: W = [[1,2],[3,4]], b = [10, 20].
  auto params = layer.parameters();
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0, 10.0, 20.0};
  for (std::size_t i = 0; i < w.size(); ++i) params[i] = w[i];
  std::vector<double> out(2);
  layer.forward_batch(std::vector<double>{1.0, 1.0}, out, 1);
  EXPECT_DOUBLE_EQ(out[0], 13.0);
  EXPECT_DOUBLE_EQ(out[1], 27.0);
}

TEST(DenseTest, BackwardComputesInputAndParamGrads) {
  util::Rng rng(1);
  Dense layer(2, 1, rng);
  auto params = layer.parameters();
  params[0] = 2.0;  // w00
  params[1] = -1.0; // w01
  params[2] = 0.0;  // b
  const std::vector<double> in{3.0, 4.0};
  std::vector<double> out(1);
  layer.forward_batch(in, out, 1);
  EXPECT_DOUBLE_EQ(out[0], 2.0);

  std::vector<double> grad_in(2);
  layer.backward_batch(in, std::vector<double>{1.0}, grad_in, 1);
  EXPECT_DOUBLE_EQ(grad_in[0], 2.0);   // dL/dx0 = w00
  EXPECT_DOUBLE_EQ(grad_in[1], -1.0);  // dL/dx1 = w01
  auto grads = layer.gradients();
  EXPECT_DOUBLE_EQ(grads[0], 3.0);  // dL/dw00 = x0
  EXPECT_DOUBLE_EQ(grads[1], 4.0);  // dL/dw01 = x1
  EXPECT_DOUBLE_EQ(grads[2], 1.0);  // dL/db
}

TEST(DenseTest, BackwardAccumulatesAcrossCalls) {
  util::Rng rng(2);
  Dense layer(1, 1, rng);
  const std::vector<double> in{2.0}, grad_out{1.0};
  std::vector<double> grad_in(1);
  layer.backward_batch(in, grad_out, grad_in, 1);
  layer.backward_batch(in, grad_out, grad_in, 1);
  EXPECT_DOUBLE_EQ(layer.gradients()[0], 4.0);  // 2 + 2
}

TEST(DenseTest, CloneCopiesParameters) {
  util::Rng rng(3);
  Dense layer(4, 3, rng);
  auto copy = layer.clone();
  const auto a = layer.parameters();
  const auto b = copy->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(DenseTest, SpecDescribesShape) {
  util::Rng rng(4);
  EXPECT_EQ(Dense(5, 7, rng).spec(), "dense 5 7");
}

TEST(ReluTest, ForwardZeroesNegatives) {
  Relu layer(3);
  std::vector<double> out(3);
  layer.forward_batch(std::vector<double>{-1.0, 0.0, 2.0}, out, 1);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(ReluTest, BackwardGatesGradient) {
  Relu layer(3);
  std::vector<double> grad_in(3);
  layer.backward_batch(std::vector<double>{-1.0, 0.5, 2.0},
                       std::vector<double>{10.0, 10.0, 10.0}, grad_in, 1);
  EXPECT_DOUBLE_EQ(grad_in[0], 0.0);
  EXPECT_DOUBLE_EQ(grad_in[1], 10.0);
  EXPECT_DOUBLE_EQ(grad_in[2], 10.0);
}

TEST(ActivationTest, NoParameters) {
  Relu relu(4);
  EXPECT_TRUE(relu.parameters().empty());
  EXPECT_TRUE(relu.gradients().empty());
}

TEST(Conv1DTest, ForwardConvolvesPrefixPassesAux) {
  util::Rng rng(5);
  // input = [h0 h1 h2 h3 | a0], 1 filter of kernel 2 => 3 positions + 1 aux.
  Conv1DOverPrefix layer(5, 4, 1, 2, rng);
  auto params = layer.parameters();
  params[0] = 1.0;  // w0
  params[1] = 2.0;  // w1
  params[2] = 0.5;  // bias
  std::vector<double> out(layer.output_size());
  ASSERT_EQ(out.size(), 4u);
  layer.forward_batch(std::vector<double>{1.0, 2.0, 3.0, 4.0, 9.0}, out, 1);
  EXPECT_DOUBLE_EQ(out[0], 1.0 + 4.0 + 0.5);   // 1*1+2*2+b
  EXPECT_DOUBLE_EQ(out[1], 2.0 + 6.0 + 0.5);
  EXPECT_DOUBLE_EQ(out[2], 3.0 + 8.0 + 0.5);
  EXPECT_DOUBLE_EQ(out[3], 9.0);  // aux passthrough
}

TEST(Conv1DTest, OutputSizeMatchesPaperArchitecture) {
  util::Rng rng(6);
  // The paper: 128 filters of size 4, stride 1 over the history.
  Conv1DOverPrefix layer(14 + 12, 14, 128, 4, rng);
  EXPECT_EQ(layer.positions(), 11u);
  EXPECT_EQ(layer.output_size(), 128u * 11u + 12u);
}

TEST(Conv1DTest, BackwardBatchRejectsInputGradients) {
  // The conv over the input prefix is the bottom layer by construction, so
  // it computes no dL/d(in): asking for it throws before any accumulator
  // changes. Without it, only the parameter gradients accumulate.
  util::Rng rng(7);
  Conv1DOverPrefix layer(5, 4, 1, 2, rng);
  const std::vector<double> in{1.0, 2.0, 3.0, 4.0, 9.0};
  const std::vector<double> grad_out(layer.output_size(), 1.0);
  std::vector<double> grad_in(5);
  EXPECT_THROW(layer.backward_batch(in, grad_out, grad_in, 1),
               std::logic_error);
  for (const double g : layer.gradients()) EXPECT_EQ(g, 0.0);
  layer.backward_batch(in, grad_out, {}, 1);
  EXPECT_DOUBLE_EQ(layer.gradients()[0], 1.0 + 2.0 + 3.0);  // tap 0
  EXPECT_DOUBLE_EQ(layer.gradients()[1], 2.0 + 3.0 + 4.0);  // tap 1
  EXPECT_DOUBLE_EQ(layer.gradients()[2], 3.0);              // bias
}

TEST(Conv1DTest, RejectsBadGeometry) {
  util::Rng rng(8);
  EXPECT_THROW(Conv1DOverPrefix(10, 4, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(Conv1DOverPrefix(10, 4, 1, 0, rng), std::invalid_argument);
  EXPECT_THROW(Conv1DOverPrefix(10, 4, 1, 5, rng), std::invalid_argument);
  EXPECT_THROW(Conv1DOverPrefix(4, 5, 1, 2, rng), std::invalid_argument);
}

TEST(DenseTest, ForwardBatchMatchesPerRowExactly) {
  // 0-ULP edge grid for the row-blocked kernel: widths on both sides of the
  // 64-input slice and the 32-output tile, batches on both sides of the
  // 4-row block and the 256-row planner chunk, plus the original small case
  // (in 3, out 4, batch 6). Compared bit for bit against the reference, so
  // a sign of zero counts. The fused-ReLU store is checked against the
  // reference Dense then Relu on the same rows; row 0 is all -0.0, so some
  // pre-activations are exactly -0.0 or +0.0.
  for (const std::size_t in : {1u, 3u, 63u, 64u, 65u, 366u}) {
    for (const std::size_t out : {1u, 3u, 4u, 31u, 32u, 33u, 65u}) {
      util::Rng rng(10 + in * 100 + out);
      Dense layer(in, out, rng);
      // Neuron 0 (weights made positive, bias -0.0) is exactly -0.0 on the
      // all -0.0 row; the others are +0.0 there.
      auto params = layer.parameters();
      for (std::size_t i = 0; i < in; ++i) params[i] = std::abs(params[i]);
      params[in * out] = -0.0;
      Relu relu(out);
      for (const std::size_t batch :
           {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 14u, 255u, 256u, 257u}) {
        util::Rng data(11 + batch);
        std::vector<double> rows(batch * in);
        for (double& v : rows) v = data.normal(0.0, 2.0);
        std::fill_n(rows.begin(), in, -0.0);
        std::vector<double> plain(batch * out), fused(batch * out);
        layer.forward_batch(rows, plain, batch);
        ASSERT_TRUE(layer.forward_batch_relu(rows, fused, batch));
        std::size_t mismatches = 0;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto expected = reference::forward(
              layer, std::span<const double>(rows.data() + b * in, in));
          const auto expected_relu = reference::forward(relu, expected);
          for (std::size_t o = 0; o < out; ++o) {
            if (bits(plain[b * out + o]) != bits(expected[o]) ||
                bits(fused[b * out + o]) != bits(expected_relu[o]))
              ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << "in=" << in << " out=" << out << " batch=" << batch;
      }
    }
  }
}

TEST(Conv1DTest, ForwardBatchMatchesPerRowExactly) {
  util::Rng rng(11);
  Conv1DOverPrefix layer(8, 6, 2, 3, rng);
  const std::size_t batch = 5;
  util::Rng data(12);
  std::vector<double> in(batch * layer.input_size());
  for (double& v : in) v = data.uniform(-3.0, 3.0);
  std::vector<double> out(batch * layer.output_size());
  layer.forward_batch(in, out, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto row_out = reference::forward(
        layer, std::span<const double>(in.data() + b * layer.input_size(),
                                       layer.input_size()));
    for (std::size_t o = 0; o < row_out.size(); ++o)
      EXPECT_EQ(out[b * layer.output_size() + o], row_out[o]);
  }
}

TEST(Conv1DTest, ForwardBatchReluMatchesForwardThenRelu) {
  // The fused-ReLU store against the reference conv then Relu, bit for
  // bit, aux pass-through included, with filter counts on both sides of the
  // 32-filter tile. Filter 0 (taps made positive, bias -0.0) is exactly
  // -0.0 on the all -0.0 row; rows 0-3 of every 5 are all -0.0, all +0.0,
  // all -1.0 and random with NaNs.
  for (const std::size_t filters : {2u, 32u, 33u}) {
    util::Rng rng(13 + filters);
    Conv1DOverPrefix layer(10, 7, filters, 3, rng);
    auto params = layer.parameters();
    for (std::size_t k = 0; k < 3; ++k) params[k] = std::abs(params[k]);
    params[filters * 3] = -0.0;
    const std::size_t in_w = layer.input_size();
    const std::size_t out_w = layer.output_size();
    Relu relu(out_w);
    const std::size_t batch = 9;
    util::Rng data(14);
    std::vector<double> in(batch * in_w);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < in_w; ++i) {
        const double fill[] = {-0.0, 0.0, -1.0};
        in[b * in_w + i] = b % 5 < 3 ? fill[b % 5] : data.uniform(-3.0, 3.0);
      }
      if (b % 5 == 3) {
        in[b * in_w + 2] = std::nan("");
        in[b * in_w + in_w - 1] = std::nan("");
      }
    }
    std::vector<double> fused(batch * out_w);
    ASSERT_TRUE(layer.forward_batch_relu(in, fused, batch));
    for (std::size_t b = 0; b < batch; ++b) {
      const auto expected = reference::forward(
          relu, reference::forward(layer, std::span<const double>(
                                              in.data() + b * in_w, in_w)));
      for (std::size_t o = 0; o < out_w; ++o)
        EXPECT_EQ(bits(fused[b * out_w + o]), bits(expected[o]))
            << "filters=" << filters << " row " << b << " out " << o;
    }
  }
}

TEST(Conv1DTest, ForwardBatchSweepMatchesForwardBitForBit) {
  // Generated 0-ULP sweep of the filter-major kernel against the
  // reference: every prefix 1..40
  // with every kernel 1..min(prefix, 6), so the position count crosses the
  // 8-lane tile (1, 7, 8, 9, 11, 16, 17, 37, ...), against filter counts on
  // both sides of the 4-filter block and of the deployed 32. Aux width
  // and batch cycle together through all nine (aux, batch) pairs every nine
  // geometries. Rows rotate through five kinds: random, all -0.0, all +0.0,
  // random with a NaN, and random with +inf and -inf. Filter 0 (taps made
  // positive, bias -0.0) is exactly -0.0 on the all -0.0 row. A sentinel
  // after each output buffer catches a tail store past the last row.
  constexpr std::size_t kSentinel = 8;
  const double sentinel = std::bit_cast<double>(0x7FF8DEADBEEF0001ULL);
  const std::size_t auxes[] = {0, 1, 14};
  const std::size_t batches[] = {1, 3, 256};
  std::size_t config = 0;
  for (std::size_t prefix = 1; prefix <= 40; ++prefix) {
    for (std::size_t kernel = 1; kernel <= std::min<std::size_t>(prefix, 6);
         ++kernel) {
      for (const std::size_t filters :
           {1u, 2u, 3u, 4u, 5u, 7u, 32u, 33u, 128u}) {
        const std::size_t aux = auxes[config % 3];
        const std::size_t batch = batches[config / 3 % 3];
        ++config;
        util::Rng rng(config);
        Conv1DOverPrefix layer(prefix + aux, prefix, filters, kernel, rng);
        auto params = layer.parameters();
        for (std::size_t k = 0; k < kernel; ++k)
          params[k] = std::abs(params[k]);
        params[filters * kernel] = -0.0;
        const std::size_t in_w = layer.input_size();
        const std::size_t out_w = layer.output_size();
        const auto pick = [&rng](std::size_t n) {
          return static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        };
        std::vector<double> in(batch * in_w);
        for (std::size_t b = 0; b < batch; ++b) {
          double* row = in.data() + b * in_w;
          const std::size_t kind = (b + config) % 5;
          for (std::size_t i = 0; i < in_w; ++i)
            row[i] = kind == 1 ? -0.0 : kind == 2 ? 0.0 : rng.normal(0.0, 2.0);
          if (kind == 3) row[pick(prefix)] = std::nan("");
          if (kind == 4) {
            row[pick(prefix)] = std::numeric_limits<double>::infinity();
            row[pick(in_w)] = -std::numeric_limits<double>::infinity();
          }
        }
        std::vector<double> plain(batch * out_w + kSentinel, sentinel);
        std::vector<double> fused(batch * out_w + kSentinel, sentinel);
        layer.forward_batch(in, std::span(plain).first(batch * out_w), batch);
        ASSERT_TRUE(layer.forward_batch_relu(
            in, std::span(fused).first(batch * out_w), batch));
        Relu relu(out_w);
        std::size_t mismatches = 0;
        for (std::size_t b = 0; b < batch; ++b) {
          const auto expected = reference::forward(
              layer, std::span<const double>(in.data() + b * in_w, in_w));
          const auto expected_relu = reference::forward(relu, expected);
          for (std::size_t o = 0; o < out_w; ++o) {
            if (bits(plain[b * out_w + o]) != bits(expected[o]) ||
                bits(fused[b * out_w + o]) != bits(expected_relu[o]))
              ++mismatches;
          }
        }
        for (std::size_t i = batch * out_w; i < plain.size(); ++i) {
          if (bits(plain[i]) != bits(sentinel) ||
              bits(fused[i]) != bits(sentinel))
            ++mismatches;
        }
        ASSERT_EQ(mismatches, 0u)
            << "prefix=" << prefix << " kernel=" << kernel
            << " filters=" << filters << " aux=" << aux << " batch=" << batch;
      }
    }
  }
}

TEST(ActivationTest, ForwardBatchMatchesPerRowExactly) {
  Relu relu(3);
  const std::vector<double> in{-1.0, 0.0, 2.0, 0.5, -0.5, 3.0};
  std::vector<double> out(in.size());
  relu.forward_batch(in, out, 2);
  for (std::size_t b = 0; b < 2; ++b) {
    const auto row_out =
        reference::forward(relu, std::span<const double>(in.data() + b * 3, 3));
    for (std::size_t o = 0; o < 3; ++o) EXPECT_EQ(out[b * 3 + o], row_out[o]);
  }
}

TEST(Conv1DTest, SpecDescribesGeometry) {
  util::Rng rng(9);
  EXPECT_EQ(Conv1DOverPrefix(26, 14, 32, 4, rng).spec(), "conv1d 26 14 32 4");
}

// The bit-identity contract's notion of equal: the same bits, or NaN on
// both sides. A NaN's payload and sign are the one thing the contract
// cannot pin: where two different NaNs meet in one add, the one that
// propagates depends on the operand order, and the compiler may commute
// the operands of a commutative operation in either path.
bool same_value(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

// Plants IEEE special values in rows 0..3 of a batch of gradient rows (as
// far as the batch reaches): -0.0 and +0.0 in row 0, +inf in row 1, NaN in
// row 2 and -inf in row 3, each at a different output where there are
// enough, so signed zeros, infinities and NaNs flow through every
// accumulator family while most accumulators stay finite.
void plant_specials(std::vector<double>& grad_out, std::size_t batch,
                    std::size_t out_w) {
  const auto at = [&](std::size_t row, std::size_t o) -> double& {
    return grad_out[row * out_w + o % out_w];
  };
  at(0, 0) = -0.0;
  at(0, 1) = 0.0;
  if (batch > 1) at(1, 1) = std::numeric_limits<double>::infinity();
  if (batch > 2) at(2, out_w - 1) = std::numeric_limits<double>::quiet_NaN();
  if (batch > 3) at(3, out_w / 2) = -std::numeric_limits<double>::infinity();
}

// Reference semantics for backward_batch: reference::backward() on each
// row in ascending row order. Runs two clones of `proto` — with input
// grads, and without (the bottom-layer form the trainer runs) — and the
// reference from identically pre-seeded gradient accumulators (so
// accumulate-don't-overwrite is pinned too), and demands same_value() for
// every parameter gradient and every input-gradient element. The conv has
// no input gradients, so it runs only the bottom form. The input-gradient
// buffer is followed by an 8-double sentinel that the batched pass must
// leave untouched. With `specials`, plant_specials() seeds the gradient
// rows and row 0's first input is -0.0.
void ExpectBackwardBatchBitIdentical(const Layer& proto, std::size_t batch,
                                     std::uint64_t seed, bool specials) {
  const bool input_grads =
      dynamic_cast<const Conv1DOverPrefix*>(&proto) == nullptr;
  const std::unique_ptr<Layer> batched = proto.clone();
  const std::unique_ptr<Layer> bottom = proto.clone();
  const std::size_t in_w = proto.input_size();
  const std::size_t out_w = proto.output_size();
  SCOPED_TRACE(proto.spec() + " batch=" + std::to_string(batch) +
               (specials ? " specials" : ""));
  util::Rng data(seed);
  std::vector<double> in(batch * in_w), grad_out(batch * out_w);
  for (double& v : in) v = data.normal(0.0, 1.5);
  for (double& v : grad_out) v = data.uniform(-2.0, 2.0);
  if (specials) {
    plant_specials(grad_out, batch, out_w);
    in[0] = -0.0;
  }
  std::vector<double> want(proto.parameters().size());
  {
    auto ga = batched->gradients();
    auto gb = bottom->gradients();
    for (std::size_t i = 0; i < want.size(); ++i) {
      want[i] = data.uniform(-0.5, 0.5);
      ga[i] = want[i];
      gb[i] = want[i];
    }
  }
  constexpr std::size_t kSentinel = 8;
  constexpr double kSentinelValue = -1234.5;
  std::vector<double> grad_in_batched(batch * in_w + kSentinel, kSentinelValue);
  if (input_grads)
    batched->backward_batch(
        in, grad_out,
        std::span<double>(grad_in_batched).first(batch * in_w), batch);
  bottom->backward_batch(in, grad_out, {}, batch);
  std::size_t mismatches = 0;
  std::vector<double> grad_in_row(input_grads ? in_w : 0);
  for (std::size_t b = 0; b < batch; ++b) {
    reference::backward(
        proto, std::span<const double>(in.data() + b * in_w, in_w),
        std::span<const double>(grad_out.data() + b * out_w, out_w), want,
        grad_in_row);
    for (std::size_t i = 0; i < grad_in_row.size(); ++i) {
      if (same_value(grad_in_batched[b * in_w + i], grad_in_row[i])) continue;
      if (++mismatches <= 3)
        ADD_FAILURE() << "row " << b << " input " << i << ": "
                      << grad_in_batched[b * in_w + i] << " vs "
                      << grad_in_row[i];
    }
  }
  for (std::size_t i = batch * in_w; i < grad_in_batched.size(); ++i)
    EXPECT_EQ(bits(grad_in_batched[i]), bits(kSentinelValue))
        << "sentinel " << i - batch * in_w << " overwritten";
  const auto got = batched->gradients();
  const auto got_bottom = bottom->gradients();
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (input_grads && !same_value(got[i], want[i]) && ++mismatches <= 6)
      ADD_FAILURE() << "grad " << i << ": " << got[i] << " vs " << want[i];
    if (!same_value(got_bottom[i], want[i]) && ++mismatches <= 6)
      ADD_FAILURE() << "grad " << i << " without input grads: "
                    << got_bottom[i] << " vs " << want[i];
  }
  EXPECT_EQ(mismatches, 0u);
}

constexpr std::size_t kSweepBatches[] = {1, 2, 3, 4, 5, 13, 14, 15, 64};

TEST(DenseTest, BackwardBatchBitIdenticalToSequentialScalar) {
  // Every input width class the kernel tiles differently — below, at and
  // just past one and two 32-wide tiles, and the trunk's 366 = 11 x 32 +
  // 8 + 4 + 2 — by output counts below, at and past the 4-output register
  // block and the 32-wide bias tile, by batches below, at and past the
  // 4-row block, including the trainer's 14 rows.
  std::uint64_t seed = 1000;
  for (const std::size_t in : {1, 3, 8, 31, 32, 33, 63, 64, 65, 366}) {
    for (const std::size_t out : {1, 3, 4, 5, 31, 32, 33}) {
      util::Rng rng(in * 100 + out);
      const Dense proto(in, out, rng);
      for (const std::size_t batch : kSweepBatches) {
        for (const bool specials : {false, true})
          ExpectBackwardBatchBitIdentical(proto, batch, ++seed, specials);
      }
    }
  }
}

TEST(Conv1DTest, BackwardBatchBitIdenticalToSequentialScalar) {
  // The deployed trunk's conv (28 inputs, 14-day prefix, 32 filters of 4
  // taps) and geometries that reach every tile: kernels 1..7 and 9 (single
  // taps, one or two 4-tap tiles, and both), filter counts below, at and
  // past the 8-filter register block, and aux features.
  struct Geometry {
    std::size_t input, prefix, filters, kernel;
  };
  const Geometry geometries[] = {
      {28, 14, 32, 4}, {26, 14, 37, 4}, {14, 14, 1, 1}, {20, 14, 9, 5},
      {17, 9, 8, 2},   {30, 16, 16, 7}, {24, 12, 7, 6}, {11, 10, 3, 3},
      {30, 16, 5, 9},
  };
  std::uint64_t seed = 2000;
  for (const Geometry& g : geometries) {
    util::Rng rng(g.input * 1000 + g.filters * 10 + g.kernel);
    const Conv1DOverPrefix proto(g.input, g.prefix, g.filters, g.kernel, rng);
    for (const std::size_t batch : kSweepBatches) {
      for (const bool specials : {false, true})
        ExpectBackwardBatchBitIdentical(proto, batch, ++seed, specials);
    }
  }
}

TEST(Conv1DTest, BackwardBatchBitIdenticalSmallGeometry) {
  for (const std::size_t batch : {1, 2, 14, 64}) {
    util::Rng rng(22);
    const Conv1DOverPrefix proto(8, 6, 2, 3, rng);
    ExpectBackwardBatchBitIdentical(proto, batch, 300 + batch,
                                    /*specials=*/false);
  }
}

TEST(ActivationTest, BackwardBatchBitIdenticalToSequentialScalar) {
  for (const bool specials : {false, true}) {
    ExpectBackwardBatchBitIdentical(Relu(5), 14, 400, specials);
  }
}

}  // namespace
}  // namespace minicost::nn
