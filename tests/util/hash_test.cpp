#include "util/hash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

namespace minicost::util {
namespace {

// key_classes over doubles compared by their bytes, hashed by `hash`.
template <class Hash>
KeyClasses classes_of(const std::vector<double>& keys, const Hash& hash) {
  return key_classes(
      keys.size(), [&](std::size_t i) { return hash(keys[i]); },
      [&](std::size_t a, std::size_t b) {
        return double_bits(keys[a]) == double_bits(keys[b]);
      });
}

std::uint64_t bits_hash(double x) { return hash_finish(double_bits(x)); }
std::uint64_t constant_hash(double) { return 0; }

using Ids = std::vector<std::uint32_t>;

TEST(KeyClassesTest, ConstantHashStillGivesExactClasses) {
  const std::vector<double> keys = {3, 1, 3, 2, 1, 3, 4, 2};
  std::size_t hashed = 0;
  const KeyClasses classes = classes_of(keys, [&](double x) {
    ++hashed;
    return constant_hash(x);
  });
  EXPECT_EQ(hashed, keys.size());
  EXPECT_EQ(classes.class_of, (Ids{0, 1, 0, 2, 1, 0, 3, 2}));
  EXPECT_EQ(classes.representative, (Ids{0, 1, 3, 6}));
}

TEST(KeyClassesTest, SignedZerosAndNanPayloadsLandApart) {
  const double nan_a = std::nan("1");
  const double nan_b = std::nan("2");
  ASSERT_NE(double_bits(nan_a), double_bits(nan_b));
  const std::vector<double> keys = {0.0, -0.0, nan_a, nan_b, 0.0, nan_a, -0.0};
  const Ids class_of = {0, 1, 2, 3, 0, 2, 1};
  const Ids representative = {0, 1, 2, 3};
  for (const auto hash : {bits_hash, constant_hash}) {
    const KeyClasses classes = classes_of(keys, hash);
    EXPECT_EQ(classes.class_of, class_of);
    EXPECT_EQ(classes.representative, representative);
  }
}

TEST(KeyClassesTest, ClassesFollowFirstOccurrenceOrder) {
  const std::vector<double> keys = {5, 5, 9, 7, 9, 7, 1};
  const KeyClasses classes = classes_of(keys, bits_hash);
  EXPECT_EQ(classes.class_of, (Ids{0, 0, 1, 2, 1, 2, 3}));
  EXPECT_EQ(classes.representative, (Ids{0, 2, 3, 6}));
}

TEST(KeyClassesTest, MatchesAnOrderedMapOnManyRepeats) {
  // 2000 keys over 97 values, hashed by their bytes and by a hash that
  // keeps only 3 bits, which piles every class into one probe run.
  std::vector<double> keys;
  for (std::size_t i = 0; i < 2000; ++i)
    keys.push_back(static_cast<double>((i * 7919) % 97) - 48.0);
  for (const auto hash : {+[](double x) { return bits_hash(x); },
                          +[](double x) { return bits_hash(x) & 7; }}) {
    const KeyClasses classes = classes_of(keys, hash);
    std::map<std::uint64_t, std::uint32_t> first;
    Ids class_of, representative;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto [it, fresh] =
          first.emplace(double_bits(keys[i]),
                        static_cast<std::uint32_t>(representative.size()));
      if (fresh) representative.push_back(static_cast<std::uint32_t>(i));
      class_of.push_back(it->second);
    }
    EXPECT_EQ(classes.class_of, class_of);
    EXPECT_EQ(classes.representative, representative);
    EXPECT_EQ(representative.size(), 97u);
  }
}

TEST(KeyClassesTest, NoKeysNoClasses) {
  std::size_t calls = 0;
  const KeyClasses classes = key_classes(
      0,
      [&](std::size_t) {
        ++calls;
        return std::uint64_t{0};
      },
      [&](std::size_t, std::size_t) {
        ++calls;
        return true;
      });
  EXPECT_TRUE(classes.class_of.empty());
  EXPECT_TRUE(classes.representative.empty());
  EXPECT_EQ(calls, 0u);
}

TEST(KeyClassesTest, RejectsMoreKeysThanClassIds) {
  // Throws before it hashes or allocates anything.
  const std::size_t n =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  std::size_t calls = 0;
  EXPECT_THROW(key_classes(
                   n,
                   [&](std::size_t) {
                     ++calls;
                     return std::uint64_t{0};
                   },
                   [](std::size_t, std::size_t) { return true; }),
               std::length_error);
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace minicost::util
