#include "nn/ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace minicost::nn {
namespace {

TEST(SoftmaxTest, SumsToOneAndOrdersCorrectly) {
  const std::vector<double> logits{1.0, 2.0, 3.0};
  const auto pi = softmax(logits);
  double total = 0.0;
  for (double p : pi) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(pi[0], pi[1]);
  EXPECT_LT(pi[1], pi[2]);
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  const std::vector<double> logits{1000.0, 1001.0, 999.0};
  const auto pi = softmax(logits);
  for (double p : pi) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0);
  }
  EXPECT_NEAR(pi[0] + pi[1] + pi[2], 1.0, 1e-12);
}

TEST(SoftmaxTest, UniformLogitsGiveUniformDistribution) {
  const auto pi = softmax(std::vector<double>{5.0, 5.0, 5.0, 5.0});
  for (double p : pi) EXPECT_NEAR(p, 0.25, 1e-12);
}

TEST(SoftmaxTest, EmptyInputYieldsEmpty) {
  EXPECT_TRUE(softmax(std::vector<double>{}).empty());
}

TEST(SoftmaxRowsTest, MatchesSoftmaxPerRowExactly) {
  const std::vector<double> logits{1.0, 2.0,   3.0,  -1.0,  0.0,
                                   5.0, 100.0, 99.0, -100.0};
  std::vector<double> out(logits.size());
  softmax_rows(logits, 3, out);
  for (std::size_t r = 0; r < 3; ++r) {
    const auto expected =
        softmax(std::span<const double>(logits.data() + r * 3, 3));
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(out[r * 3 + i], expected[i]) << "row " << r << " col " << i;
  }
}

TEST(SoftmaxRowsTest, SupportsInPlaceAliasing) {
  std::vector<double> buffer{0.5, -1.0, 2.0, 4.0, 4.0, 4.0};
  const std::vector<double> copy = buffer;
  softmax_rows(buffer, 2, buffer);
  for (std::size_t r = 0; r < 2; ++r) {
    const auto expected =
        softmax(std::span<const double>(copy.data() + r * 3, 3));
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(buffer[r * 3 + i], expected[i]);
  }
}

TEST(SoftmaxRowsTest, RejectsMismatchedBuffers) {
  std::vector<double> out(6);
  EXPECT_THROW(softmax_rows(std::vector<double>(5, 0.0), 2, out),
               std::invalid_argument);
  EXPECT_THROW(softmax_rows(std::vector<double>(6, 0.0), 4, out),
               std::invalid_argument);
}

TEST(SoftmaxRowsTest, ZeroRowsIsANoop) {
  std::vector<double> out;
  softmax_rows(std::vector<double>{}, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(EntropyTest, UniformIsMaximal) {
  const std::vector<double> uniform{1.0 / 3, 1.0 / 3, 1.0 / 3};
  EXPECT_NEAR(entropy(uniform), std::log(3.0), 1e-12);
  const std::vector<double> peaked{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(entropy(peaked), 0.0);
  EXPECT_GT(entropy(uniform), entropy(std::vector<double>{0.8, 0.1, 0.1}));
}

TEST(ArgmaxTest, FindsLargest) {
  EXPECT_EQ(argmax(std::vector<double>{0.1, 0.7, 0.2}), 1u);
  EXPECT_EQ(argmax(std::vector<double>{3.0}), 0u);
  EXPECT_EQ(argmax(std::vector<double>{}), 0u);
}

TEST(ArgmaxTest, FirstWinnerOnTies) {
  EXPECT_EQ(argmax(std::vector<double>{0.5, 0.5}), 0u);
}

TEST(NormTest, L2NormOfPythagoreanTriple) {
  EXPECT_DOUBLE_EQ(l2_norm(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(l2_norm(std::vector<double>{}), 0.0);
}

TEST(ClipByGlobalNormTest, RescalesWhenAboveLimit) {
  std::vector<double> xs{3.0, 4.0};  // norm 5
  clip_by_global_norm(xs, 1.0);
  EXPECT_NEAR(l2_norm(xs), 1.0, 1e-12);
  EXPECT_NEAR(xs[0] / xs[1], 0.75, 1e-12);  // direction preserved
}

TEST(ClipByGlobalNormTest, NoopWhenWithinLimit) {
  std::vector<double> xs{0.3, 0.4};
  clip_by_global_norm(xs, 1.0);
  EXPECT_DOUBLE_EQ(xs[0], 0.3);
  EXPECT_DOUBLE_EQ(xs[1], 0.4);
}

TEST(ClipByGlobalNormTest, NonPositiveLimitIsNoop) {
  std::vector<double> xs{30.0, 40.0};
  clip_by_global_norm(xs, 0.0);
  EXPECT_DOUBLE_EQ(xs[0], 30.0);
}

// The A3C actor-loss gradient of one episode step, as the trainer computes
// it per step: softmax, entropy, then policy-gradient + entropy terms
// scaled by 1/n. policy_entropy_grad_rows must reproduce it to 0 ULP.
std::vector<double> scalar_policy_entropy_grad(std::span<const double> logits,
                                               std::size_t action,
                                               double advantage, double beta,
                                               double inv_n) {
  const std::vector<double> pi = softmax(logits);
  const double h = entropy(pi);
  std::vector<double> grad(pi.size());
  for (std::size_t a = 0; a < pi.size(); ++a) {
    // d(-log π(a*))/dz_a = π_a - 1{a = a*}; scaled by the advantage.
    const double pg = (pi[a] - (a == action ? 1.0 : 0.0)) * advantage;
    // Entropy ascent: dH/dz_a = -π_a (log π_a + H); descend its negative.
    const double ent = beta * pi[a] * (std::log(std::max(pi[a], 1e-12)) + h);
    grad[a] = (pg + ent) * inv_n;
  }
  return grad;
}

TEST(LossGradRowsTest, PolicyEntropyGradRowsMatchesScalarFormula) {
  constexpr std::size_t kWidth = 3;
  for (const std::size_t rows : {1u, 14u}) {
    for (const double beta : {0.0, 0.15}) {
      util::Rng rng(300 + rows);
      std::vector<double> logits(rows * kWidth);
      for (double& z : logits) z = rng.normal(0.0, 2.0);
      // Row 0 softmaxes to exactly one-hot, so its two 0-probability
      // actions take the 1e-12 log clamp.
      logits[0] = -1000.0;
      logits[1] = 0.0;
      logits[2] = -2000.0;
      std::vector<std::size_t> chosen(rows);
      std::vector<double> advantages(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        chosen[r] = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kWidth) - 1));
        advantages[r] = rng.normal(0.0, 1.0);
      }
      const double inv_n = 1.0 / static_cast<double>(rows);

      std::vector<double> probs(rows * kWidth);
      softmax_rows(logits, rows, probs);
      ASSERT_EQ(probs[0], 0.0);
      ASSERT_EQ(probs[1], 1.0);
      std::vector<double> grad(rows * kWidth);
      policy_entropy_grad_rows(probs, rows, chosen, advantages, beta, inv_n,
                               grad);

      for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<double> want = scalar_policy_entropy_grad(
            std::span<const double>(logits.data() + r * kWidth, kWidth),
            chosen[r], advantages[r], beta, inv_n);
        for (std::size_t a = 0; a < kWidth; ++a)
          EXPECT_EQ(grad[r * kWidth + a], want[a])
              << "rows=" << rows << " beta=" << beta << " row " << r
              << " action " << a;
      }
    }
  }
}

TEST(LossGradRowsTest, MseGradRowsMatchesScalarFormula) {
  for (const std::size_t rows : {1u, 14u}) {
    util::Rng rng(400 + rows);
    std::vector<double> values(rows), returns(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      values[i] = rng.normal(0.0, 3.0);
      returns[i] = rng.normal(0.0, 3.0);
    }
    const double inv_n = 1.0 / static_cast<double>(rows);
    std::vector<double> grad(rows);
    mse_grad_rows(values, returns, inv_n, grad);
    for (std::size_t i = 0; i < rows; ++i)
      EXPECT_EQ(grad[i], 2.0 * (values[i] - returns[i]) * inv_n)
          << "rows=" << rows << " row " << i;
  }
}

}  // namespace
}  // namespace minicost::nn
