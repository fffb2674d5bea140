#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

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

TEST(EnvTest, UnparseableFallsBack) {
  ::setenv("MINICOST_TEST_VAR", "not-a-number", 1);
  EXPECT_EQ(env_int("MINICOST_TEST_VAR", 9), 9);
  ::unsetenv("MINICOST_TEST_VAR");
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

}  // namespace
}  // namespace minicost::util
