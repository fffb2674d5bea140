#include "sim/billing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace minicost::sim {
namespace {

/// Records `count` tier changes on `day` through a charge-free partial.
void add_changes(BillingReport& report, std::size_t day,
                 std::uint64_t count = 1) {
  DayPartial changes;
  changes.tier_changes = count;
  report.add_day(day, changes);
}

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
  add_changes(report, 0);
  add_changes(report, 1, 2);
  EXPECT_EQ(report.tier_changes(), 3u);
  EXPECT_EQ(report.tier_changes_on(0), 1u);
  EXPECT_EQ(report.tier_changes_on(1), 2u);
}

TEST(BillingReportTest, MergeCombinesReports) {
  BillingReport a(2, 2), b(2, 2);
  a.charge(0, 0, CostBreakdown{1.0, 0.0, 0.0, 0.0});
  b.charge(1, 1, CostBreakdown{0.0, 2.0, 0.0, 0.0});
  add_changes(b, 1);
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
  add_changes(shard, 1);
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

// The simulator's path: each chunk of a day's files sums into its own
// DayPartial and the partials merge into the day. Any chunking must give the
// bytes of charging the files one at a time.
TEST(BillingReportTest, DayPartialsOfAnyChunkingMatchSingleCharges) {
  constexpr std::size_t kFiles = 13, kDays = 2;
  std::vector<CostBreakdown> charges(kFiles);
  double v = 1.0;
  for (std::size_t f = 0; f < kFiles; ++f) {
    v *= -89.0;
    charges[f] = CostBreakdown{v, v * 1e-17, v * 1e17, 1.0 / v};
  }

  BillingReport single(kFiles, kDays);
  for (std::size_t d = 0; d < kDays; ++d) {
    for (std::size_t f = 0; f < kFiles; ++f) single.charge(f, d, charges[f]);
    add_changes(single, d, kFiles);
  }

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{4}, std::size_t{6}, kFiles}) {
    BillingReport chunked(kFiles, kDays);
    for (std::size_t d = 0; d < kDays; ++d) {
      for (std::size_t first = 0; first < kFiles; first += chunk) {
        DayPartial partial;
        for (std::size_t f = first; f < std::min(kFiles, first + chunk); ++f) {
          partial.add(charges[f]);
          ++partial.tier_changes;
          chunked.add_file_total(f, charges[f].total());
        }
        chunked.add_day(d, partial);
      }
    }
    EXPECT_TRUE(bitwise_equal(single, chunked)) << "chunk " << chunk;
  }
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// `count` copies of one charge as repeated DayPartial::add(cost): literally
// for small counts, by doubling merges (exact) for the largest.
DayPartial repeated(const CostBreakdown& cost, std::uint64_t count) {
  DayPartial sum;
  if (count <= 3) {
    for (std::uint64_t i = 0; i < count; ++i) sum.add(cost);
    return sum;
  }
  DayPartial power;
  power.add(cost);
  for (; count != 0; count >>= 1) {
    if ((count & 1) != 0) sum.add(power);
    power.add(power);
  }
  return sum;
}

// A class of k identical files is billed once with add(cost, k): each sum
// must hold exactly what k single charges would.
TEST(BillingReportTest, DayPartialScaledAddEqualsRepeatedAdds) {
  const CostBreakdown costs[] = {
      {std::numeric_limits<double>::denorm_min(), std::ldexp(1.0, -1022), 0.1,
       -3.7},
      {-3.7, std::ldexp(DBL_MAX, -33), 0.0, 0.1},
  };
  for (const CostBreakdown& cost : costs) {
    for (const std::uint32_t k : {0u, 1u, 2u, 3u, 0xFFFFFFFFu}) {
      DayPartial scaled;
      scaled.add(cost, k);
      const DayPartial expected = repeated(cost, k);
      EXPECT_EQ(bits_of(scaled.storage.value()),
                bits_of(expected.storage.value())) << k;
      EXPECT_EQ(bits_of(scaled.read.value()), bits_of(expected.read.value()))
          << k;
      EXPECT_EQ(bits_of(scaled.write.value()),
                bits_of(expected.write.value())) << k;
      EXPECT_EQ(bits_of(scaled.change.value()),
                bits_of(expected.change.value())) << k;
    }
  }
}

TEST(BillingReportTest, GatherHandsEachFileItsSourcesTotal) {
  BillingReport classes(2, 3);
  classes.charge(0, 0, CostBreakdown{0.1, 0.2, 0.0, 0.0});
  classes.charge(1, 2, CostBreakdown{0.3, 0.0, 0.7, 0.5});
  add_changes(classes, 2, 4);

  const std::vector<trace::FileId> source_of = {0, 1, 0, 1, 1};
  const BillingReport wide = classes.gather(source_of);
  ASSERT_EQ(wide.file_count(), source_of.size());
  ASSERT_EQ(wide.days(), classes.days());
  for (std::size_t f = 0; f < source_of.size(); ++f)
    EXPECT_EQ(bits_of(wide.file_total(f)),
              bits_of(classes.file_total(source_of[f])));
  for (std::size_t d = 0; d < classes.days(); ++d) {
    EXPECT_TRUE(bitwise_equal(wide.day(d), classes.day(d)));
    EXPECT_EQ(wide.tier_changes_on(d), classes.tier_changes_on(d));
  }
  EXPECT_EQ(wide.tier_changes(), 4u);
  EXPECT_TRUE(bitwise_equal(wide.grand_total(), classes.grand_total()));

  const std::vector<trace::FileId> out_of_range = {0, 2};
  EXPECT_THROW((void)classes.gather(out_of_range), std::out_of_range);
}

TEST(BillingReportTest, BitwiseEqualAcceptsAnyMergeOfTheSameCharges) {
  BillingReport whole(2, 2), left(1, 2), right(1, 2), merged(2, 2);
  whole.charge(0, 0, CostBreakdown{0.1, 0.2, 0.0, 0.0});
  whole.charge(1, 1, CostBreakdown{0.3, 0.0, 0.7, 0.5});
  add_changes(whole, 1);
  left.charge(0, 0, CostBreakdown{0.1, 0.2, 0.0, 0.0});
  right.charge(0, 1, CostBreakdown{0.3, 0.0, 0.7, 0.5});
  add_changes(right, 1);
  merged.merge_shard(right, 1);
  merged.merge_shard(left, 0);
  EXPECT_TRUE(bitwise_equal(whole, merged));
  EXPECT_TRUE(bitwise_equal(BillingReport(), BillingReport()));
}

TEST(BillingReportTest, BitwiseEqualCatchesOneFlippedBitInOneDaysChangeSum) {
  // Day 0's change sum differs in its lowest mantissa bit. Day 1 charges
  // 2^60, whose ulp swallows that bit, so the per-file total, the grand
  // total and the tier changes are all bit-identical: only the per-day
  // comparison can see the difference.
  const double one = 1.0;
  const double flipped = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(one) ^ std::uint64_t{1});
  const double big = 0x1p60;
  BillingReport a(1, 2), b(1, 2);
  a.charge(0, 0, CostBreakdown{0.0, 0.0, 0.0, one});
  b.charge(0, 0, CostBreakdown{0.0, 0.0, 0.0, flipped});
  a.charge(0, 1, CostBreakdown{0.0, 0.0, 0.0, big});
  b.charge(0, 1, CostBreakdown{0.0, 0.0, 0.0, big});

  ASSERT_TRUE(bitwise_equal(a.grand_total(), b.grand_total()));
  ASSERT_EQ(std::bit_cast<std::uint64_t>(a.file_total(0)),
            std::bit_cast<std::uint64_t>(b.file_total(0)));
  ASSERT_NE(std::bit_cast<std::uint64_t>(a.day(0).change),
            std::bit_cast<std::uint64_t>(b.day(0).change));
  EXPECT_FALSE(bitwise_equal(a, b));
  EXPECT_TRUE(bitwise_equal(a, a));
}

TEST(BillingReportTest, BitwiseEqualTellsNegativeZeroFromPositiveZero) {
  // ExactSum rounds an exact zero to +0.0, so no report holds -0.0 today;
  // the breakdown comparison the report check runs on every day and on the
  // grand total must still refuse it, where == would not.
  const CostBreakdown positive{};
  CostBreakdown negative{};
  negative.change = -0.0;
  ASSERT_TRUE(positive.change == negative.change);
  EXPECT_FALSE(bitwise_equal(positive, negative));
  EXPECT_TRUE(bitwise_equal(negative, negative));
}

TEST(BillingReportTest, BitwiseEqualComparesShapesAndPerDayTierChanges) {
  BillingReport a(1, 2), b(1, 2);
  add_changes(a, 0);
  add_changes(b, 1);
  ASSERT_EQ(a.tier_changes(), b.tier_changes());
  EXPECT_FALSE(bitwise_equal(a, b));
  EXPECT_FALSE(bitwise_equal(BillingReport(1, 2), BillingReport(2, 2)));
  EXPECT_FALSE(bitwise_equal(BillingReport(1, 2), BillingReport(1, 3)));
}

}  // namespace
}  // namespace minicost::sim
