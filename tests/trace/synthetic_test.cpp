#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"
#include "trace/analysis.hpp"

namespace minicost::trace {
namespace {

SyntheticConfig small_config() {
  SyntheticConfig config;
  config.file_count = 500;
  config.days = 62;
  config.seed = 42;
  return config;
}

TEST(SyntheticTest, ProducesRequestedShape) {
  const RequestTrace trace = generate_synthetic(small_config());
  EXPECT_EQ(trace.file_count(), 500u);
  EXPECT_EQ(trace.days(), 62u);
  EXPECT_NO_THROW(trace.validate());
}

TEST(SyntheticTest, DeterministicForSameSeed) {
  const RequestTrace a = generate_synthetic(small_config());
  const RequestTrace b = generate_synthetic(small_config());
  ASSERT_EQ(a.file_count(), b.file_count());
  for (std::size_t i = 0; i < a.file_count(); ++i) {
    const auto id = static_cast<FileId>(i);
    EXPECT_EQ(a.file(id).size_gb, b.file(id).size_gb);
    EXPECT_EQ(a.file(id).reads, b.file(id).reads);
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticConfig config = small_config();
  const RequestTrace a = generate_synthetic(config);
  config.seed = 43;
  const RequestTrace b = generate_synthetic(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.file_count() && !any_diff; ++i) {
    any_diff = a.file(static_cast<FileId>(i)).reads !=
               b.file(static_cast<FileId>(i)).reads;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, SizesArePoissonAroundHundredMegabytes) {
  // Paper Sec. 3.1: Poisson, mean 100 MB.
  SyntheticConfig config = small_config();
  config.file_count = 5000;
  const RequestTrace trace = generate_synthetic(config);
  double mean_mb = 0.0;
  for (const FileRecord& f : trace.files()) mean_mb += f.size_gb * 1024.0;
  mean_mb /= static_cast<double>(trace.file_count());
  EXPECT_NEAR(mean_mb, 100.0, 2.0);
}

TEST(SyntheticTest, BucketSharesCalibratedToFigure2) {
  SyntheticConfig config = small_config();
  config.file_count = 20000;
  const RequestTrace trace = generate_synthetic(config);
  const VariabilityAnalysis analysis = analyze_variability(trace);
  const auto target = stats::paper_fig2_shares();
  // Realized CV wobbles around the per-file target, so allow a few percent
  // of absolute slack per bucket.
  for (std::size_t b = 0; b < target.size(); ++b) {
    EXPECT_NEAR(analysis.histogram.share(b), target[b], 0.05)
        << "bucket " << analysis.histogram.label(b);
  }
  // The dominant (stationary) bucket must dominate, as in the paper.
  EXPECT_GT(analysis.histogram.share(0), 0.70);
}

TEST(SyntheticTest, CustomBucketSharesRespected) {
  SyntheticConfig config = small_config();
  config.file_count = 4000;
  config.bucket_shares = {0.0, 0.0, 0.0, 0.0, 1.0};  // all flash-crowd
  const RequestTrace trace = generate_synthetic(config);
  const VariabilityAnalysis analysis = analyze_variability(trace);
  // Everything should land in the upper buckets.
  EXPECT_GT(analysis.histogram.share(4) + analysis.histogram.share(3), 0.85);
}

TEST(SyntheticTest, WeeklyCycleIsPresent) {
  SyntheticConfig config = small_config();
  config.file_count = 200;
  const RequestTrace trace = generate_synthetic(config);
  // Average autocorrelation at lag 7 across mid-variability files should
  // exceed the lag-3 autocorrelation (seasonality at the weekly period).
  double acf7 = 0.0, acf3 = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < trace.file_count(); ++i) {
    const auto id = static_cast<FileId>(i);
    const double cv = trace.variability(id);
    if (cv < 0.15 || cv > 0.5) continue;
    const auto& reads = trace.file(id).reads;
    const double m = stats::mean(reads);
    double denom = 0.0, num7 = 0.0, num3 = 0.0;
    for (std::size_t t = 0; t < reads.size(); ++t) {
      denom += (reads[t] - m) * (reads[t] - m);
      if (t >= 7) num7 += (reads[t] - m) * (reads[t - 7] - m);
      if (t >= 3) num3 += (reads[t] - m) * (reads[t - 3] - m);
    }
    if (denom <= 0.0) continue;
    acf7 += num7 / denom;
    acf3 += num3 / denom;
    ++counted;
  }
  ASSERT_GT(counted, 10);
  EXPECT_GT(acf7 / counted, acf3 / counted);
  EXPECT_GT(acf7 / counted, 0.1);
}

TEST(SyntheticTest, GroupsCoverRequestedFraction) {
  SyntheticConfig config = small_config();
  config.file_count = 1000;
  config.grouped_file_fraction = 0.4;
  const RequestTrace trace = generate_synthetic(config);
  std::size_t grouped = 0;
  for (const CoRequestGroup& g : trace.groups()) grouped += g.members.size();
  EXPECT_NEAR(static_cast<double>(grouped) / 1000.0, 0.4, 0.05);
  for (const CoRequestGroup& g : trace.groups()) {
    EXPECT_GE(g.members.size(), config.group_size_min);
    EXPECT_LE(g.members.size(), config.group_size_max);
  }
}

TEST(SyntheticTest, ConcurrentReadsNeverExceedMemberReads) {
  const RequestTrace trace = generate_synthetic(small_config());
  for (const CoRequestGroup& g : trace.groups()) {
    for (std::size_t t = 0; t < trace.days(); ++t) {
      for (FileId m : g.members) {
        EXPECT_LE(g.concurrent_reads[t], trace.file(m).reads[t] + 1e-9);
      }
    }
  }
}

TEST(SyntheticTest, PopularityBoostRaisesBucketMeans) {
  SyntheticConfig config = small_config();
  config.file_count = 20000;
  const RequestTrace trace = generate_synthetic(config);
  const VariabilityAnalysis analysis = analyze_variability(trace);
  auto bucket_mean = [&](std::size_t b) {
    double total = 0.0;
    for (FileId id : analysis.bucket_members[b])
      total += stats::mean(trace.file(id).reads);
    return analysis.bucket_members[b].empty()
               ? 0.0
               : total / static_cast<double>(analysis.bucket_members[b].size());
  };
  // Flash-crowd files carry more traffic on average (Fig. 8's shape).
  EXPECT_GT(bucket_mean(4), bucket_mean(0));
}

TEST(SyntheticTest, RejectsBadConfigs) {
  SyntheticConfig config = small_config();
  config.file_count = 0;
  EXPECT_THROW(generate_synthetic(config), std::invalid_argument);

  config = small_config();
  config.days = 1;
  EXPECT_THROW(generate_synthetic(config), std::invalid_argument);

  config = small_config();
  config.bucket_shares = {0.5, 0.5};  // wrong bucket count
  EXPECT_THROW(generate_synthetic(config), std::invalid_argument);

  config = small_config();
  config.group_size_min = 1;
  EXPECT_THROW(generate_synthetic(config), std::invalid_argument);
}

TEST(SyntheticTest, ChunkedGenerationMatchesWholeTrace) {
  SyntheticConfig config;
  config.file_count = 50;
  config.days = 8;
  config.seed = 23;
  const RequestTrace whole = generate_synthetic(config);

  // Any chunking reproduces the same files bit for bit — the property the
  // streamed store writer (`minicost generate --out x.mct`) relies on.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{50}}) {
    for (std::size_t first = 0; first < config.file_count; first += chunk) {
      const std::size_t count = std::min(chunk, config.file_count - first);
      const auto files = generate_synthetic_files(config, first, count);
      ASSERT_EQ(files.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(files[i].name, whole.files()[first + i].name);
        EXPECT_EQ(files[i].size_gb, whole.files()[first + i].size_gb);
        EXPECT_EQ(files[i].reads, whole.files()[first + i].reads);
        EXPECT_EQ(files[i].writes, whole.files()[first + i].writes);
      }
    }
  }
  EXPECT_THROW(generate_synthetic_files(config, 45, 10), std::out_of_range);
}

TEST(SyntheticTest, VariabilityRangesCoverPaperBuckets) {
  const auto ranges = variability_bucket_ranges();
  ASSERT_EQ(ranges.size(), 5u);
  for (const auto& range : ranges) EXPECT_LT(range.lo, range.hi);
  EXPECT_LT(ranges[0].hi, 0.11);
  EXPECT_GT(ranges[4].lo, 0.8);
}

}  // namespace
}  // namespace minicost::trace
