#include "stats/exact_sum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace minicost::stats {
namespace {

double sum_in_order(const std::vector<double>& xs) {
  ExactSum s;
  for (double x : xs) s.add(x);
  return s.value();
}

TEST(ExactSumTest, EmptyIsZero) {
  ExactSum s;
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSumTest, SmallExactCases) {
  ExactSum s;
  s.add(1.0);
  s.add(2.0);
  s.add(0.5);
  EXPECT_EQ(s.value(), 3.5);
  s.add(-3.5);
  EXPECT_EQ(s.value(), 0.0);
  s.add(-1.25);
  EXPECT_EQ(s.value(), -1.25);
}

TEST(ExactSumTest, ExactCancellationAcrossMagnitudes) {
  // 1e16 + 1 - 1e16 loses the 1 in plain double arithmetic (1e16 + 1 rounds
  // back to 1e16); the exact accumulator keeps it.
  ExactSum s;
  s.add(1e16);
  s.add(1.0);
  s.add(-1e16);
  EXPECT_EQ(s.value(), 1.0);
}

TEST(ExactSumTest, ExtremeMagnitudesAndSubnormals) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double huge = std::numeric_limits<double>::max();
  ExactSum s;
  s.add(huge);
  s.add(tiny);
  s.add(-huge);
  EXPECT_EQ(s.value(), tiny);

  ExactSum t;
  t.add(tiny);
  t.add(tiny);
  t.add(-tiny);
  EXPECT_EQ(t.value(), tiny);
}

TEST(ExactSumTest, RoundsToNearestEven) {
  // 2^53 is the first integer whose successor is not representable:
  // 2^53 + 1 must round to 2^53 (even), 2^53 + 3 to 2^53 + 4.
  const double p53 = std::ldexp(1.0, 53);
  ExactSum s;
  s.add(p53);
  s.add(1.0);
  EXPECT_EQ(s.value(), p53);
  ExactSum t;
  t.add(p53);
  t.add(3.0);
  EXPECT_EQ(t.value(), p53 + 4.0);
  // Sticky bit: 2^53 + 1 + 2^-60 is strictly above the midpoint, so it must
  // round up even though the round bit alone says "tie".
  ExactSum u;
  u.add(p53);
  u.add(1.0);
  u.add(std::ldexp(1.0, -60));
  EXPECT_EQ(u.value(), p53 + 2.0);
}

TEST(ExactSumTest, RejectsNonFinite) {
  ExactSum s;
  EXPECT_THROW(s.add(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(s.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ExactSumTest, OrderAndPartitionInvariance) {
  util::Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) {
    // Adversarial spread: magnitudes across ~600 orders, both signs.
    const double mag = std::ldexp(rng.next_double() + 0.5,
                                  static_cast<int>(rng.uniform_int(-300, 300)));
    xs.push_back(rng.bernoulli(0.5) ? mag : -mag);
  }
  const double reference = sum_in_order(xs);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> shuffled = xs;
    rng.shuffle(shuffled);
    EXPECT_EQ(sum_in_order(shuffled), reference) << "trial " << trial;

    // Random partition into contiguous shards, each summed independently,
    // merged with add(ExactSum) — the shard-streamed billing pattern.
    ExactSum merged;
    std::size_t begin = 0;
    while (begin < shuffled.size()) {
      const auto len = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(shuffled.size() - begin)));
      ExactSum shard;
      for (std::size_t i = begin; i < begin + len; ++i) shard.add(shuffled[i]);
      merged.add(shard);
      begin += len;
    }
    EXPECT_EQ(merged.value(), reference) << "partition trial " << trial;
  }
}

TEST(ExactSumTest, MatchesLongDoubleOnModerateRange) {
  // With addends confined to a few orders of magnitude, an 80-bit long
  // double fold is itself exact enough to be the correctly rounded sum.
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> xs;
    long double ref = 0.0L;
    for (int i = 0; i < 200; ++i) {
      const double x = rng.uniform(0.0, 1000.0);
      xs.push_back(x);
      ref += static_cast<long double>(x);
    }
    EXPECT_EQ(sum_in_order(xs), static_cast<double>(ref)) << "trial " << trial;
  }
}

TEST(ExactSumTest, ManyAddsTriggerCarryPropagation) {
  // 2^20 equal addends exercise the pending-carry path deterministically
  // (the threshold itself is too large to hit in a unit test's budget, but
  // interleaved value() calls force normalization mid-stream).
  ExactSum s;
  double expected = 0.0;
  for (int i = 0; i < (1 << 20); ++i) {
    s.add(0.125);
    if ((i & 0xFFFF) == 0) (void)s.value();
  }
  expected = 0.125 * (1 << 20);
  EXPECT_EQ(s.value(), expected);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

// `count` copies of x as repeated add(x): literally for small counts, and by
// doubling merges (exact, so the same state) for counts no loop can reach.
ExactSum repeated(double x, std::uint64_t count) {
  ExactSum sum;
  if (count <= 3) {
    for (std::uint64_t i = 0; i < count; ++i) sum.add(x);
    return sum;
  }
  ExactSum power;  // x * 2^bit
  power.add(x);
  for (; count != 0; count >>= 1) {
    if ((count & 1) != 0) sum.add(power);
    power.add(power);
  }
  return sum;
}

// The values and counts add_scaled must get exactly right: the least
// subnormal, the least normal, inexact decimals of both signs, and a value
// whose product with the largest count stays finite; counts 0 and 1, small
// counts, and the largest 32-bit count.
const double kScaledValues[] = {std::numeric_limits<double>::denorm_min(),
                                std::ldexp(1.0, -1022), 0.1, -3.7,
                                std::ldexp(DBL_MAX, -33)};
const std::uint32_t kScaledCounts[] = {0, 1, 2, 3, 0xFFFFFFFFu};

TEST(ExactSumTest, AddScaledEqualsRepeatedAdds) {
  for (const double x : kScaledValues) {
    for (const std::uint32_t k : kScaledCounts) {
      ExactSum scaled;
      scaled.add_scaled(x, k);
      EXPECT_EQ(bits_of(scaled.value()), bits_of(repeated(x, k).value()))
          << x << " x " << k;

      // On top of an existing sum, and merged into another one.
      ExactSum mixed;
      mixed.add(1.5);
      mixed.add_scaled(x, k);
      mixed.add(-x);
      ExactSum expected = repeated(x, k);
      expected.add(1.5);
      expected.add(-x);
      EXPECT_EQ(bits_of(mixed.value()), bits_of(expected.value()))
          << x << " x " << k << " mixed";
    }
  }
  // The repeated-add reference itself: doubling merges equal a plain loop.
  ExactSum loop;
  for (int i = 0; i < 1000; ++i) loop.add(0.1);
  EXPECT_EQ(bits_of(repeated(0.1, 1000).value()), bits_of(loop.value()));
}

TEST(ExactSumTest, AddScaledOfTheLargestCountSpansFourLimbs) {
  // A full 53-bit significand times 2^32 - 1, at every shift within a limb:
  // the product's top bits land in a fourth limb.
  const double full = std::nextafter(2.0, 0.0);  // 2 - 2^-52
  for (int e = 0; e < 32; ++e) {
    const double x = std::ldexp(full, e);
    ExactSum scaled;
    scaled.add_scaled(x, 0xFFFFFFFFu);
    EXPECT_EQ(bits_of(scaled.value()),
              bits_of(repeated(x, 0xFFFFFFFFu).value()))
        << "shift " << e;
  }
}

TEST(ExactSumTest, AddScaledCrossesTheNormalizeBoundary) {
  // Just over 2^29 (kMaxPending) scaled adds, each depositing up to 2^32 in
  // four limbs: the accumulator normalizes mid-stream, in both signs.
  constexpr std::uint64_t kCalls = (std::uint64_t{1} << 29) + 6;
  constexpr std::uint32_t k = 0xFFFFFFFFu;
  ExactSum scaled;
  for (std::uint64_t i = 0; i < kCalls / 2; ++i) {
    scaled.add_scaled(0.1, k);
    scaled.add_scaled(-3.7, k);
  }
  ExactSum expected = repeated(0.1, kCalls / 2 * k);
  expected.add(repeated(-3.7, kCalls / 2 * k));
  EXPECT_EQ(bits_of(scaled.value()), bits_of(expected.value()));
}

TEST(ExactSumTest, AddScaledRejectsNonFiniteForEveryCount) {
  ExactSum s;
  for (const std::uint32_t k : kScaledCounts) {
    EXPECT_THROW(s.add_scaled(std::numeric_limits<double>::infinity(), k),
                 std::invalid_argument);
    EXPECT_THROW(s.add_scaled(std::numeric_limits<double>::quiet_NaN(), k),
                 std::invalid_argument);
  }
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSumTest, ResetClears) {
  ExactSum s;
  s.add(42.0);
  s.reset();
  EXPECT_EQ(s.value(), 0.0);
  s.add(-1.5);
  EXPECT_EQ(s.value(), -1.5);
}

}  // namespace
}  // namespace minicost::stats
