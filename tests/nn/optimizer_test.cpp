#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace minicost::nn {
namespace {

// Minimize f(x) = (x - 3)^2 from x = 0; gradient 2(x-3).
template <typename Opt>
double minimize_quadratic(Opt&& opt, int steps) {
  std::vector<double> x{0.0};
  for (int i = 0; i < steps; ++i) {
    const std::vector<double> grad{2.0 * (x[0] - 3.0)};
    opt.step(x, grad);
  }
  return x[0];
}

TEST(SgdTest, ConvergesOnQuadratic) {
  EXPECT_NEAR(minimize_quadratic(Sgd(0.1), 200), 3.0, 1e-6);
}

TEST(SgdTest, MomentumAcceleratesConvergence) {
  std::vector<double> plain{0.0}, momentum{0.0};
  Sgd slow(0.01), fast(0.01, 0.9);
  for (int i = 0; i < 50; ++i) {
    slow.step(plain, std::vector<double>{2.0 * (plain[0] - 3.0)});
    fast.step(momentum, std::vector<double>{2.0 * (momentum[0] - 3.0)});
  }
  EXPECT_LT(std::abs(momentum[0] - 3.0), std::abs(plain[0] - 3.0));
}

TEST(RmsPropTest, ConvergesOnQuadratic) {
  EXPECT_NEAR(minimize_quadratic(RmsProp(0.05), 500), 3.0, 0.01);
}

TEST(OptimizerTest, StepRejectsSizeMismatch) {
  Sgd opt(0.1);
  std::vector<double> params{1.0, 2.0};
  EXPECT_THROW(opt.step(params, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(OptimizerTest, StepRejectsChangedParameterCount) {
  Sgd opt(0.1, 0.5);  // momentum state pins the size
  std::vector<double> params{1.0, 2.0};
  opt.step(params, std::vector<double>{0.1, 0.1});
  std::vector<double> other{1.0};
  EXPECT_THROW(opt.step(other, std::vector<double>{0.1}),
               std::invalid_argument);
}

TEST(OptimizerTest, NamesAreStable) {
  EXPECT_EQ(Sgd(0.1).name(), "sgd");
  EXPECT_EQ(RmsProp(0.1).name(), "rmsprop");
}

TEST(RmsPropTest, StepsAreApproximatelyScaleInvariant) {
  // RMSProp normalizes by the gradient RMS: scaling the objective by 100
  // should barely change the first-step magnitude (unlike SGD).
  RmsProp small(0.01), large(0.01);
  std::vector<double> a{0.0}, b{0.0};
  small.step(a, std::vector<double>{1.0});
  large.step(b, std::vector<double>{100.0});
  EXPECT_NEAR(a[0], b[0], 1e-6);
}

}  // namespace
}  // namespace minicost::nn
