#include "trace/analysis.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace minicost::trace {
namespace {

TEST(AnalysisTest, BucketMembersPartitionAllFiles) {
  SyntheticConfig config;
  config.file_count = 300;
  config.days = 30;
  config.seed = 3;
  const RequestTrace trace = generate_synthetic(config);
  const VariabilityAnalysis analysis = analyze_variability(trace);

  std::size_t total = 0;
  std::vector<bool> seen(trace.file_count(), false);
  for (const auto& bucket : analysis.bucket_members) {
    for (FileId id : bucket) {
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, trace.file_count());
  EXPECT_EQ(analysis.per_file_variability.size(), trace.file_count());
  EXPECT_EQ(analysis.histogram.total(), trace.file_count());
}

TEST(AnalysisTest, MembersMatchMeasuredVariability) {
  SyntheticConfig config;
  config.file_count = 100;
  config.days = 30;
  config.seed = 4;
  const RequestTrace trace = generate_synthetic(config);
  const VariabilityAnalysis analysis = analyze_variability(trace);
  for (std::size_t b = 0; b < analysis.bucket_members.size(); ++b) {
    for (FileId id : analysis.bucket_members[b]) {
      EXPECT_EQ(analysis.histogram.bucket_of(analysis.per_file_variability[id]),
                b);
    }
  }
}

}  // namespace
}  // namespace minicost::trace
