#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace minicost::util {
namespace {

TEST(EnvTest, FallbackWhenUnset) {
  ::unsetenv("MINICOST_TEST_VAR");
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 7), 7);
  EXPECT_EQ(env_str("MINICOST_TEST_VAR", "dflt"), "dflt");
}

TEST(EnvTest, ParsesSetValues) {
  ::setenv("MINICOST_TEST_VAR", "123", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 7), 123);
  ::setenv("MINICOST_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_str("MINICOST_TEST_VAR", "dflt"), "hello");
  ::unsetenv("MINICOST_TEST_VAR");
}

// The error for `value` in MINICOST_TEST_VAR, read by `read`; empty when
// it does not throw.
template <typename Read>
std::string error_for(const char* value, Read read) {
  ::setenv("MINICOST_TEST_VAR", value, 1);
  std::string message;
  try {
    read();
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  ::unsetenv("MINICOST_TEST_VAR");
  return message;
}

TEST(EnvTest, UnparseableThrows) {
  const auto read_int = [] { return env_int("MINICOST_TEST_VAR", 9); };
  for (const char* value :
       {"not-a-number", "12abc", "12 ", " 12", "-", "+", "1.5", "0x10",
        "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_EQ(error_for(value, read_int),
              std::string("MINICOST_TEST_VAR expects an integer, got '") +
                  value + "'")
        << value;
  }
}

TEST(EnvTest, ParsesTheWholeInt64Range) {
  ::setenv("MINICOST_TEST_VAR", "-9223372036854775808", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 9), INT64_MIN);
  ::setenv("MINICOST_TEST_VAR", "9223372036854775807", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 9), INT64_MAX);
  ::setenv("MINICOST_TEST_VAR", "-3", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 9), -3);
  ::unsetenv("MINICOST_TEST_VAR");
}

TEST(EnvTest, SizeRejectsNegativesAndGarbage) {
  const auto read_size = [] { return env_size("MINICOST_TEST_VAR", 9); };
  for (const char* value : {"-1", "-0x1", "12abc", "abc", "-"}) {
    EXPECT_EQ(error_for(value, read_size),
              std::string("MINICOST_TEST_VAR expects a non-negative integer, "
                          "got '") +
                  value + "'")
        << value;
  }
  ::setenv("MINICOST_TEST_VAR", "0", 1);
  EXPECT_EQ(env_size("MINICOST_TEST_VAR", 9), 0u);
  ::setenv("MINICOST_TEST_VAR", "4096", 1);
  EXPECT_EQ(env_size("MINICOST_TEST_VAR", 9), 4096u);
  ::unsetenv("MINICOST_TEST_VAR");
  EXPECT_EQ(env_size("MINICOST_TEST_VAR", 9), 9u);
}

TEST(EnvTest, EmptyStringFallsBack) {
  ::setenv("MINICOST_TEST_VAR", "", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 5), 5);
  ::unsetenv("MINICOST_TEST_VAR");
}

TEST(EnvTest, BenchScaleReadsEnv) {
  ::unsetenv("MINICOST_SCALE");
  EXPECT_EQ(bench_scale(4000), 4000);
  ::setenv("MINICOST_SCALE", "123456", 1);
  EXPECT_EQ(bench_scale(4000), 123456);
  ::unsetenv("MINICOST_SCALE");
}

TEST(EnvTest, BenchSeedDefaultsTo42) {
  ::unsetenv("MINICOST_SEED");
  EXPECT_EQ(bench_seed(), 42u);
}

TEST(EnvTest, BenchScaleAndSeedRejectNegatives) {
  ::setenv("MINICOST_SCALE", "-5", 1);
  EXPECT_THROW(bench_scale(4000), std::invalid_argument);
  ::unsetenv("MINICOST_SCALE");
  ::setenv("MINICOST_SEED", "-1", 1);
  EXPECT_THROW(bench_seed(), std::invalid_argument);
  ::unsetenv("MINICOST_SEED");
}

}  // namespace
}  // namespace minicost::util
