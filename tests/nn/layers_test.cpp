#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"

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
  layer.forward(std::vector<double>{1.0, 1.0}, out);
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
  std::vector<double> out(1);
  layer.forward(std::vector<double>{3.0, 4.0}, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);

  std::vector<double> grad_in(2);
  layer.backward(std::vector<double>{1.0}, grad_in);
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
  std::vector<double> out(1), grad_in(1);
  layer.forward(std::vector<double>{2.0}, out);
  layer.backward(std::vector<double>{1.0}, grad_in);
  layer.forward(std::vector<double>{2.0}, out);
  layer.backward(std::vector<double>{1.0}, grad_in);
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
  layer.forward(std::vector<double>{-1.0, 0.0, 2.0}, out);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 2.0);
}

TEST(ReluTest, BackwardGatesGradient) {
  Relu layer(3);
  std::vector<double> out(3), grad_in(3);
  layer.forward(std::vector<double>{-1.0, 0.5, 2.0}, out);
  layer.backward(std::vector<double>{10.0, 10.0, 10.0}, grad_in);
  EXPECT_DOUBLE_EQ(grad_in[0], 0.0);
  EXPECT_DOUBLE_EQ(grad_in[1], 10.0);
  EXPECT_DOUBLE_EQ(grad_in[2], 10.0);
}

TEST(TanhTest, ForwardAndBackward) {
  Tanh layer(1);
  std::vector<double> out(1), grad_in(1);
  layer.forward(std::vector<double>{0.5}, out);
  EXPECT_NEAR(out[0], std::tanh(0.5), 1e-15);
  layer.backward(std::vector<double>{1.0}, grad_in);
  EXPECT_NEAR(grad_in[0], 1.0 - std::tanh(0.5) * std::tanh(0.5), 1e-15);
}

TEST(ActivationTest, NoParameters) {
  Relu relu(4);
  Tanh tanh_layer(4);
  EXPECT_TRUE(relu.parameters().empty());
  EXPECT_TRUE(tanh_layer.parameters().empty());
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
  layer.forward(std::vector<double>{1.0, 2.0, 3.0, 4.0, 9.0}, out);
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

TEST(Conv1DTest, BackwardRoutesAuxGradient) {
  util::Rng rng(7);
  Conv1DOverPrefix layer(5, 4, 1, 2, rng);
  std::vector<double> out(layer.output_size()), grad_in(5);
  layer.forward(std::vector<double>{0.0, 0.0, 0.0, 0.0, 1.0}, out);
  std::vector<double> grad_out(layer.output_size(), 0.0);
  grad_out.back() = 7.0;  // only the aux output carries gradient
  layer.backward(grad_out, grad_in);
  EXPECT_DOUBLE_EQ(grad_in[4], 7.0);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(grad_in[i], 0.0);
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
  // (in 3, out 4, batch 6). Compared bit for bit, so a
  // sign of zero counts. The fused-ReLU store is checked against forward()
  // then Relu::forward() on the same rows; row 0 is all -0.0, so some
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
        std::vector<double> expected(out), expected_relu(out);
        std::size_t mismatches = 0;
        for (std::size_t b = 0; b < batch; ++b) {
          layer.forward(std::span<const double>(rows.data() + b * in, in),
                        expected);
          relu.forward(expected, expected_relu);
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
  std::vector<double> row_out(layer.output_size());
  for (std::size_t b = 0; b < batch; ++b) {
    layer.forward(std::span<const double>(in.data() + b * layer.input_size(),
                                          layer.input_size()),
                  row_out);
    for (std::size_t o = 0; o < row_out.size(); ++o)
      EXPECT_EQ(out[b * layer.output_size() + o], row_out[o]);
  }
}

TEST(Conv1DTest, ForwardBatchReluMatchesForwardThenRelu) {
  // The fused-ReLU store against forward() then Relu::forward(), bit for
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
    std::vector<double> row_out(out_w), expected(out_w);
    for (std::size_t b = 0; b < batch; ++b) {
      layer.forward(std::span<const double>(in.data() + b * in_w, in_w),
                    row_out);
      relu.forward(row_out, expected);
      for (std::size_t o = 0; o < out_w; ++o)
        EXPECT_EQ(bits(fused[b * out_w + o]), bits(expected[o]))
            << "filters=" << filters << " row " << b << " out " << o;
    }
  }
}

TEST(Conv1DTest, ForwardBatchSweepMatchesForwardBitForBit) {
  // Generated 0-ULP sweep of the filter-major kernel: every prefix 1..40
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
        std::vector<double> expected(out_w), expected_relu(out_w);
        std::size_t mismatches = 0;
        for (std::size_t b = 0; b < batch; ++b) {
          layer.forward(std::span<const double>(in.data() + b * in_w, in_w),
                        expected);
          relu.forward(expected, expected_relu);
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
  Tanh tanh_layer(3);
  const std::vector<double> in{-1.0, 0.0, 2.0, 0.5, -0.5, 3.0};
  for (Layer* layer : {static_cast<Layer*>(&relu),
                       static_cast<Layer*>(&tanh_layer)}) {
    std::vector<double> out(in.size());
    layer->forward_batch(in, out, 2);
    std::vector<double> row_out(3);
    for (std::size_t b = 0; b < 2; ++b) {
      layer->forward(std::span<const double>(in.data() + b * 3, 3), row_out);
      for (std::size_t o = 0; o < 3; ++o)
        EXPECT_EQ(out[b * 3 + o], row_out[o]);
    }
  }
}

TEST(Conv1DTest, SpecDescribesGeometry) {
  util::Rng rng(9);
  EXPECT_EQ(Conv1DOverPrefix(26, 14, 32, 4, rng).spec(), "conv1d 26 14 32 4");
}

// Reference semantics for backward_batch: `batch` sequential scalar
// forward()+backward() calls in ascending row order. Runs both paths on
// layers with identical parameters and identically pre-seeded gradient
// accumulators (so accumulate-don't-overwrite is pinned too) and demands
// 0-ULP equality of every parameter gradient and every input-gradient row
// (EXPECT_EQ on doubles, per DESIGN.md §7).
void ExpectBackwardBatchBitIdentical(Layer& batched, Layer& scalar,
                                     std::size_t batch, std::uint64_t seed) {
  const std::size_t in_w = batched.input_size();
  const std::size_t out_w = batched.output_size();
  util::Rng data(seed);
  std::vector<double> in(batch * in_w), grad_out(batch * out_w);
  for (double& v : in) v = data.normal(0.0, 1.5);
  for (double& v : grad_out) v = data.uniform(-2.0, 2.0);
  {
    auto ga = batched.gradients();
    auto gb = scalar.gradients();
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      const double g0 = data.uniform(-0.5, 0.5);
      ga[i] = g0;
      gb[i] = g0;
    }
  }
  std::vector<double> grad_in_batched(batch * in_w);
  batched.backward_batch(in, grad_out, grad_in_batched, batch);
  std::vector<double> out_scratch(out_w), grad_in_row(in_w);
  for (std::size_t b = 0; b < batch; ++b) {
    scalar.forward(std::span<const double>(in.data() + b * in_w, in_w),
                   out_scratch);
    scalar.backward(std::span<const double>(grad_out.data() + b * out_w, out_w),
                    grad_in_row);
    for (std::size_t i = 0; i < in_w; ++i)
      EXPECT_EQ(grad_in_batched[b * in_w + i], grad_in_row[i])
          << "batch " << batch << " row " << b << " input " << i;
  }
  auto ga = batched.gradients();
  auto gb = scalar.gradients();
  for (std::size_t i = 0; i < ga.size(); ++i)
    EXPECT_EQ(ga[i], gb[i]) << "batch " << batch << " grad " << i;
}

TEST(DenseTest, BackwardBatchBitIdenticalToSequentialScalar) {
  // 70x37 exercises the 32-wide register tiles plus both tail loops.
  for (const std::size_t batch : {1, 2, 14, 64}) {
    util::Rng rng_a(20), rng_b(20);
    Dense batched(70, 37, rng_a);
    Dense scalar(70, 37, rng_b);
    ExpectBackwardBatchBitIdentical(batched, scalar, batch, 100 + batch);
  }
}

TEST(Conv1DTest, BackwardBatchBitIdenticalToSequentialScalar) {
  // 37 filters exercise the 16-wide tiles plus tails; 12 aux features pin
  // the passthrough-gradient rows.
  for (const std::size_t batch : {1, 2, 14, 64}) {
    util::Rng rng_a(21), rng_b(21);
    Conv1DOverPrefix batched(26, 14, 37, 4, rng_a);
    Conv1DOverPrefix scalar(26, 14, 37, 4, rng_b);
    ExpectBackwardBatchBitIdentical(batched, scalar, batch, 200 + batch);
  }
}

TEST(Conv1DTest, BackwardBatchBitIdenticalSmallGeometry) {
  for (const std::size_t batch : {1, 2, 14, 64}) {
    util::Rng rng_a(22), rng_b(22);
    Conv1DOverPrefix batched(8, 6, 2, 3, rng_a);
    Conv1DOverPrefix scalar(8, 6, 2, 3, rng_b);
    ExpectBackwardBatchBitIdentical(batched, scalar, batch, 300 + batch);
  }
}

TEST(ActivationTest, BackwardBatchBitIdenticalToSequentialScalar) {
  Relu relu(5);
  Relu relu_ref(5);
  ExpectBackwardBatchBitIdentical(relu, relu_ref, 14, 400);
  Tanh tanh_layer(5);
  Tanh tanh_ref(5);
  ExpectBackwardBatchBitIdentical(tanh_layer, tanh_ref, 14, 401);
}

}  // namespace
}  // namespace minicost::nn
