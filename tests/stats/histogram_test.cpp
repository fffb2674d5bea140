#include "stats/histogram.hpp"

#include <gtest/gtest.h>

namespace minicost::stats {
namespace {

TEST(HistogramTest, BucketOfSelectsHalfOpenIntervals) {
  Histogram h({0.0, 1.0, 2.0});
  EXPECT_EQ(h.bucket_of(0.0), 0u);
  EXPECT_EQ(h.bucket_of(0.999), 0u);
  EXPECT_EQ(h.bucket_of(1.0), 1u);
  EXPECT_EQ(h.bucket_of(2.0), 2u);
  EXPECT_EQ(h.bucket_of(1e9), 2u);  // last bucket unbounded
}

TEST(HistogramTest, ValuesBelowFirstEdgeClampToBucketZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.bucket_of(-5.0), 0u);
}

TEST(HistogramTest, CountsAndShares) {
  Histogram h({0.0, 10.0});
  h.add(1.0);
  h.add(2.0);
  h.add(11.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_NEAR(h.share(0), 2.0 / 3.0, 1e-12);
}

TEST(HistogramTest, EmptyShareIsZero) {
  Histogram h({0.0, 1.0});
  EXPECT_DOUBLE_EQ(h.share(0), 0.0);
}

TEST(HistogramTest, LabelsMatchPaperStyle) {
  Histogram h = paper_stddev_histogram();
  EXPECT_EQ(h.label(0), "0-0.1");
  EXPECT_EQ(h.label(1), "0.1-0.3");
  EXPECT_EQ(h.label(2), "0.3-0.5");
  EXPECT_EQ(h.label(3), "0.5-0.8");
  EXPECT_EQ(h.label(4), ">0.8");
}

TEST(HistogramTest, LabelOutOfRangeThrows) {
  Histogram h({0.0, 1.0});
  EXPECT_THROW(h.label(2), std::out_of_range);
}

TEST(HistogramTest, RejectsBadEdges) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, PaperBucketsMatchPaperEdges) {
  Histogram h = paper_stddev_histogram();
  EXPECT_EQ(h.bucket_count(), 5u);
  EXPECT_EQ(h.bucket_of(0.05), 0u);
  EXPECT_EQ(h.bucket_of(0.2), 1u);
  EXPECT_EQ(h.bucket_of(0.4), 2u);
  EXPECT_EQ(h.bucket_of(0.65), 3u);
  EXPECT_EQ(h.bucket_of(0.9), 4u);
}

TEST(HistogramTest, PaperSharesSumToNearOne) {
  const auto shares = paper_fig2_shares();
  ASSERT_EQ(shares.size(), 5u);
  double total = 0.0;
  for (double s : shares) total += s;
  EXPECT_NEAR(total, 1.0, 0.001);
  EXPECT_NEAR(shares[0], 0.8175, 1e-9);  // the paper's 81.75%
}

}  // namespace
}  // namespace minicost::stats
