#include "gradient_check.hpp"

#include <gtest/gtest.h>

#include "nn/activation.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"

namespace minicost::nn {
namespace {

const auto kSquaredLoss = [](std::span<const double> out) {
  double s = 0.0;
  for (double o : out) s += o * o;
  return s;
};
const auto kSquaredLossGrad = [](std::span<const double> out) {
  std::vector<double> g(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) g[i] = 2.0 * out[i];
  return g;
};

std::vector<double> random_input(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(GradientCheckTest, DenseOnlyNetwork) {
  util::Rng rng(1);
  Network net;
  net.add(std::make_unique<Dense>(5, 7, rng));
  net.add(std::make_unique<Dense>(7, 2, rng));
  auto result = check_gradients(net, random_input(5, 2), 1, kSquaredLoss,
                                kSquaredLossGrad);
  EXPECT_LT(result.max_rel_error, 1e-4);
  EXPECT_GT(result.checked, 0u);
}

TEST(GradientCheckTest, ReluNetwork) {
  util::Rng rng(3);
  Network net;
  net.add(std::make_unique<Dense>(6, 10, rng));
  net.add(std::make_unique<Relu>(10));
  net.add(std::make_unique<Dense>(10, 3, rng));
  auto result = check_gradients(net, random_input(6, 4), 1, kSquaredLoss,
                                kSquaredLossGrad);
  EXPECT_LT(result.max_rel_error, 1e-4);
}

TEST(GradientCheckTest, ConvTrunkMatchesPaperArchitecture) {
  util::Rng rng(7);
  Network net = build_trunk(14, 12, 8, 4, 16, 3, rng);
  auto result = check_gradients(net, random_input(26, 8), 1, kSquaredLoss,
                                kSquaredLossGrad, 1e-6, 512);
  EXPECT_LT(result.max_rel_error, 1e-4);
  EXPECT_GT(result.checked, 100u);
}

TEST(GradientCheckTest, StrideSamplingBoundsWork) {
  util::Rng rng(9);
  Network net = build_trunk(14, 12, 16, 4, 32, 3, rng);
  auto result = check_gradients(net, random_input(26, 10), 1, kSquaredLoss,
                                kSquaredLossGrad, 1e-6, /*max_params=*/50);
  EXPECT_LE(result.checked, 60u);
  EXPECT_LT(result.max_rel_error, 1e-4);
}

TEST(GradientCheckBatchTest, DenseNetworkAtIssueBatchSizes) {
  for (const std::size_t batch : {1u, 2u, 14u, 64u}) {
    util::Rng rng(11);
    Network net;
    net.add(std::make_unique<Dense>(5, 7, rng));
    net.add(std::make_unique<Relu>(7));
    net.add(std::make_unique<Dense>(7, 2, rng));
    auto result =
        check_gradients(net, random_input(batch * 5, 12 + batch), batch,
                        kSquaredLoss, kSquaredLossGrad);
    EXPECT_LT(result.max_rel_error, 1e-4) << "batch=" << batch;
    EXPECT_GT(result.checked, 0u);
  }
}

TEST(GradientCheckBatchTest, ConvTrunkAtIssueBatchSizes) {
  for (const std::size_t batch : {1u, 2u, 14u, 64u}) {
    util::Rng rng(13);
    Network net = build_trunk(14, 12, 8, 4, 16, 3, rng);
    auto result =
        check_gradients(net, random_input(batch * 26, 14 + batch), batch,
                        kSquaredLoss, kSquaredLossGrad, 1e-6, 128);
    EXPECT_LT(result.max_rel_error, 1e-4) << "batch=" << batch;
    EXPECT_GT(result.checked, 0u);
  }
}

}  // namespace
}  // namespace minicost::nn
