#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace minicost::stats {
namespace {

TEST(DescriptiveTest, SumAndMeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sum(xs), 10.0);
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(DescriptiveTest, EmptyInputsAreZero) {
  const std::vector<double> none;
  EXPECT_DOUBLE_EQ(sum(none), 0.0);
  EXPECT_DOUBLE_EQ(mean(none), 0.0);
  EXPECT_DOUBLE_EQ(variance(none), 0.0);
  EXPECT_DOUBLE_EQ(stddev(none), 0.0);
}

TEST(DescriptiveTest, KahanSumIsAccurateWithMixedMagnitudes) {
  std::vector<double> xs;
  xs.push_back(1e16);
  for (int i = 0; i < 10000; ++i) xs.push_back(1.0);
  xs.push_back(-1e16);
  EXPECT_DOUBLE_EQ(sum(xs), 10000.0);
}

TEST(DescriptiveTest, VarianceUsesBesselCorrection) {
  // Paper Eq. (1): divide by T-1.
  const std::vector<double> xs{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(DescriptiveTest, SingleElementVarianceIsZero) {
  const std::vector<double> xs{5.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(DescriptiveTest, ConstantSeriesHasZeroStddev) {
  const std::vector<double> xs(100, 3.3);
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(DescriptiveTest, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(DescriptiveTest, PercentileInterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
  EXPECT_NEAR(percentile(xs, 25.0), 17.5, 1e-12);
}

TEST(DescriptiveTest, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99.0), 42.0);
}

TEST(DescriptiveTest, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(DescriptiveTest, MedianOfUnsortedInput) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(RunningStatsTest, MatchesBatchStatistics) {
  util::Rng rng(5);
  std::vector<double> xs;
  RunningStats running;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    running.add(x);
  }
  EXPECT_NEAR(running.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(running.variance(), variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(running.min(), min(xs));
  EXPECT_DOUBLE_EQ(running.max(), max(xs));
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsCombinedStream) {
  util::Rng rng(9);
  RunningStats left, right, combined;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    combined.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: unchanged
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // empty lhs: adopt rhs
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

}  // namespace
}  // namespace minicost::stats
