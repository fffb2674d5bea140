#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace minicost::util {
namespace {

TEST(SplitMix64Test, ProducesKnownGoodDispersion) {
  SplitMix64 sm(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sm.next());
  EXPECT_EQ(seen.size(), 1000u);  // no collisions in a short stream
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(RngTest, UniformIntIsApproximatelyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 9)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 4 * std::sqrt(n / 10.0));
  }
}

TEST(RngTest, NormalHasExpectedMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParametersScales) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, PoissonSmallMeanMatchesExpectation) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.08);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(29);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.poisson(100.0));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 100.0, 0.5);
  EXPECT_NEAR(var, 100.0, 5.0);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
  EXPECT_EQ(rng.poisson(-1.0), 0u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStableStreams) {
  Rng parent(99);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(2);
  Rng child_a_again = Rng(99).fork(1);
  EXPECT_EQ(child_a.next_u64(), child_a_again.next_u64());
  EXPECT_NE(child_a.next_u64(), child_b.next_u64());
}

TEST(RngTest, ForkIndependentOfParentConsumption) {
  Rng parent(99);
  parent.next_u64();
  parent.next_u64();
  Rng child = parent.fork(7);
  Rng child_fresh = Rng(99).fork(7);
  EXPECT_EQ(child.next_u64(), child_fresh.next_u64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(53);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

}  // namespace
}  // namespace minicost::util
