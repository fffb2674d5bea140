#include "forecast/evaluate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "forecast/seasonal_naive.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::forecast {
namespace {

trace::RequestTrace make_trace(std::size_t files = 120) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 21;
  return trace::generate_synthetic(config);
}

util::ThreadPool& test_pool() {
  static util::ThreadPool pool(2);
  return pool;
}

TEST(BacktestTest, ProducesSummaryPerBucket) {
  BacktestConfig config;
  config.train_days = 40;
  config.horizon = 7;
  config.make_forecaster = [] { return std::make_unique<SeasonalNaive>(7); };
  const BacktestResult result = backtest(make_trace(), config, test_pool());
  ASSERT_EQ(result.summary.size(), 5u);
  std::uint64_t files = 0;
  for (const auto& bucket : result.summary) files += bucket.files;
  EXPECT_EQ(files, 120u);
  // Percentile ordering holds wherever errors exist.
  for (const auto& bucket : result.summary) {
    if (bucket.files == 0) continue;
    EXPECT_LE(bucket.p1, bucket.p50);
    EXPECT_LE(bucket.p50, bucket.p99);
  }
}

TEST(BacktestTest, ErrorsAreBoundedAboveByOne) {
  // Relative error (true - pred)/true with pred >= 0 cannot exceed 1.
  BacktestConfig config;
  config.train_days = 40;
  config.make_forecaster = [] { return std::make_unique<SeasonalNaive>(7); };
  const BacktestResult result = backtest(make_trace(), config, test_pool());
  for (const auto& errors : result.bucket_errors) {
    for (double e : errors) EXPECT_LE(e, 1.0 + 1e-12);
  }
}

TEST(BacktestTest, HigherVariabilityHasLargerErrorsWithArima) {
  // The paper's Figure 4 shape. Uses the default (auto_arima) forecaster on
  // a larger trace so the top bucket is populated.
  BacktestConfig config;
  config.train_days = 55;
  config.horizon = 7;
  const BacktestResult result = backtest(make_trace(1500), config, test_pool());
  const auto spread = [](const BucketErrorSummary& s) { return s.p99 - s.p1; };
  ASSERT_GT(result.summary[0].files, 0u);
  // Compare the stationary bucket against the most volatile populated one.
  for (std::size_t b = result.summary.size(); b-- > 2;) {
    if (result.summary[b].files < 3) continue;
    EXPECT_GT(spread(result.summary[b]), spread(result.summary[0]));
    break;
  }
}

TEST(BacktestTest, RejectsBadWindows) {
  BacktestConfig config;
  config.train_days = 60;
  config.horizon = 7;  // 60 + 7 > 62
  EXPECT_THROW(backtest(make_trace(), config, test_pool()),
               std::invalid_argument);

  config.train_days = 4;  // too short to fit
  config.horizon = 7;
  EXPECT_THROW(backtest(make_trace(), config, test_pool()),
               std::invalid_argument);
}

TEST(BacktestTest, ClampDisabledAllowsNegativeForecasts) {
  BacktestConfig config;
  config.train_days = 40;
  config.clamp_nonnegative = false;
  config.make_forecaster = [] { return std::make_unique<SeasonalNaive>(7); };
  EXPECT_NO_THROW(backtest(make_trace(), config, test_pool()));
}

TEST(BacktestTest, ResultIsBitwiseEqualAcrossPoolSizes) {
  // Errors merge in file order on the calling thread, so neither the
  // order of bucket_errors nor mean_abs (summed in that order) may depend
  // on how the pool scheduled the files.
  const trace::RequestTrace tr = make_trace();
  BacktestConfig config;
  config.train_days = 40;
  util::ThreadPool serial(1);
  const BacktestResult reference = backtest(tr, config, serial);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool pool(threads);
    const BacktestResult result = backtest(tr, config, pool);
    ASSERT_EQ(result.bucket_errors.size(), reference.bucket_errors.size());
    for (std::size_t b = 0; b < reference.bucket_errors.size(); ++b) {
      const auto& want = reference.bucket_errors[b];
      const auto& got = result.bucket_errors[b];
      ASSERT_EQ(got.size(), want.size()) << "bucket " << b;
      for (std::size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(bits(got[k]), bits(want[k]))
            << "pool " << threads << " bucket " << b << " error " << k;
    }
    ASSERT_EQ(result.summary.size(), reference.summary.size());
    for (std::size_t b = 0; b < reference.summary.size(); ++b) {
      const BucketErrorSummary& want = reference.summary[b];
      const BucketErrorSummary& got = result.summary[b];
      EXPECT_EQ(got.label, want.label);
      EXPECT_EQ(got.files, want.files);
      EXPECT_EQ(bits(got.p1), bits(want.p1)) << "pool " << threads;
      EXPECT_EQ(bits(got.p50), bits(want.p50)) << "pool " << threads;
      EXPECT_EQ(bits(got.p99), bits(want.p99)) << "pool " << threads;
      EXPECT_EQ(bits(got.mean_abs), bits(want.mean_abs)) << "pool " << threads;
    }
  }
}

}  // namespace
}  // namespace minicost::forecast
