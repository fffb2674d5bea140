#include "sim/billing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace minicost::sim {
namespace {

TEST(BillingReportTest, ChargesAccumulateEverywhere) {
  BillingReport report(2, 3);
  report.charge(0, 0, CostBreakdown{1.0, 0.0, 0.0, 0.0});
  report.charge(1, 0, CostBreakdown{0.0, 2.0, 0.0, 0.0});
  report.charge(0, 2, CostBreakdown{0.0, 0.0, 3.0, 0.5});

  EXPECT_DOUBLE_EQ(report.grand_total().total(), 6.5);
  EXPECT_DOUBLE_EQ(report.day(0).total(), 3.0);
  EXPECT_DOUBLE_EQ(report.day(1).total(), 0.0);
  EXPECT_DOUBLE_EQ(report.day(2).total(), 3.5);
  EXPECT_DOUBLE_EQ(report.file_total(0), 4.5);
  EXPECT_DOUBLE_EQ(report.file_total(1), 2.0);
}

TEST(BillingReportTest, CumulativeThroughSumsPrefix) {
  BillingReport report(1, 3);
  report.charge(0, 0, CostBreakdown{1.0, 0.0, 0.0, 0.0});
  report.charge(0, 1, CostBreakdown{2.0, 0.0, 0.0, 0.0});
  report.charge(0, 2, CostBreakdown{4.0, 0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(report.cumulative_through(0), 1.0);
  EXPECT_DOUBLE_EQ(report.cumulative_through(1), 3.0);
  EXPECT_DOUBLE_EQ(report.cumulative_through(2), 7.0);
  EXPECT_THROW(report.cumulative_through(3), std::out_of_range);
}

TEST(BillingReportTest, TierChangeCounting) {
  BillingReport report(1, 2);
  report.count_change(0);
  report.count_change(1);
  report.count_change(1);
  EXPECT_EQ(report.tier_changes(), 3u);
  EXPECT_EQ(report.tier_changes_on(0), 1u);
  EXPECT_EQ(report.tier_changes_on(1), 2u);
}

TEST(BillingReportTest, OutOfRangeChargesThrow) {
  BillingReport report(1, 1);
  EXPECT_THROW(report.charge(5, 0, CostBreakdown{}), std::out_of_range);
  EXPECT_THROW(report.charge(0, 5, CostBreakdown{}), std::out_of_range);
}

TEST(BillingReportTest, MergeCombinesReports) {
  BillingReport a(2, 2), b(2, 2);
  a.charge(0, 0, CostBreakdown{1.0, 0.0, 0.0, 0.0});
  b.charge(1, 1, CostBreakdown{0.0, 2.0, 0.0, 0.0});
  b.count_change(1);
  a.merge_shard(b, 0);
  EXPECT_DOUBLE_EQ(a.grand_total().total(), 3.0);
  EXPECT_DOUBLE_EQ(a.file_total(1), 2.0);
  EXPECT_EQ(a.tier_changes(), 1u);
}

TEST(BillingReportTest, MergeRejectsShapeMismatch) {
  BillingReport a(2, 2), wider(3, 2), c(2, 3);
  EXPECT_THROW(a.merge_shard(wider, 0), std::invalid_argument);
  EXPECT_THROW(a.merge_shard(c, 0), std::invalid_argument);
}

TEST(BillingReportTest, MergeShardPlacesFileRange) {
  BillingReport full(4, 2);
  full.charge(0, 0, CostBreakdown{1.0, 0.0, 0.0, 0.0});

  BillingReport shard(2, 2);  // covers files [2, 4) of the full report
  shard.charge(0, 1, CostBreakdown{0.0, 2.0, 0.0, 0.0});
  shard.charge(1, 0, CostBreakdown{0.0, 0.0, 4.0, 0.0});
  shard.count_change(1);
  full.merge_shard(shard, 2);

  EXPECT_DOUBLE_EQ(full.grand_total().total(), 7.0);
  EXPECT_DOUBLE_EQ(full.file_total(0), 1.0);
  EXPECT_DOUBLE_EQ(full.file_total(2), 2.0);
  EXPECT_DOUBLE_EQ(full.file_total(3), 4.0);
  EXPECT_DOUBLE_EQ(full.day(0).total(), 5.0);
  EXPECT_DOUBLE_EQ(full.day(1).total(), 2.0);
  EXPECT_EQ(full.tier_changes(), 1u);
  EXPECT_EQ(full.tier_changes_on(1), 1u);
}

TEST(BillingReportTest, MergeShardRejectsBadShapes) {
  BillingReport full(4, 2);
  BillingReport wrong_days(2, 3);
  EXPECT_THROW(full.merge_shard(wrong_days, 0), std::invalid_argument);
  BillingReport overflow(3, 2);
  EXPECT_THROW(full.merge_shard(overflow, 2), std::invalid_argument);
  // offset + width wraps to a small value; a plain sum check would pass and
  // write past the end of the per-file totals.
  const auto max = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(full.merge_shard(overflow, max), std::invalid_argument);
  EXPECT_THROW(full.merge_shard(overflow, max - 1), std::invalid_argument);
}

// The property the shard-streamed evaluation path rests on (DESIGN.md §9):
// splitting a charge stream across shard reports and merging them yields the
// same bytes as charging one report directly, even for magnitudes where
// double addition is badly non-associative.
TEST(BillingReportTest, MergeShardIsBitExactUnderAnyPartition) {
  constexpr std::size_t kFiles = 12, kDays = 3;
  std::vector<CostBreakdown> charges(kFiles);
  double v = 1.0;
  for (std::size_t f = 0; f < kFiles; ++f) {
    v *= -97.0;  // alternating signs, magnitudes spanning ~2^79
    charges[f] = CostBreakdown{v, v * 1e-18, v * 1e18, 1.0 / v};
  }

  BillingReport mono(kFiles, kDays);
  for (std::size_t f = 0; f < kFiles; ++f)
    for (std::size_t d = 0; d < kDays; ++d) mono.charge(f, d, charges[f]);

  for (const std::size_t shard : {std::size_t{1}, std::size_t{5}, kFiles}) {
    BillingReport merged(kFiles, kDays);
    for (std::size_t first = 0; first < kFiles; first += shard) {
      const std::size_t count = std::min(shard, kFiles - first);
      BillingReport part(count, kDays);
      for (std::size_t f = 0; f < count; ++f)
        for (std::size_t d = 0; d < kDays; ++d)
          part.charge(f, d, charges[first + f]);
      merged.merge_shard(part, first);
    }
    for (std::size_t d = 0; d < kDays; ++d) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.day(d).storage),
                std::bit_cast<std::uint64_t>(mono.day(d).storage));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.day(d).read),
                std::bit_cast<std::uint64_t>(mono.day(d).read));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.day(d).write),
                std::bit_cast<std::uint64_t>(mono.day(d).write));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.day(d).change),
                std::bit_cast<std::uint64_t>(mono.day(d).change));
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.grand_total().total()),
              std::bit_cast<std::uint64_t>(mono.grand_total().total()));
  }
}

}  // namespace
}  // namespace minicost::sim
