#include "stats/error_metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace minicost::stats {
namespace {

TEST(RelativeErrorTest, MatchesPaperFormula) {
  // Paper: (True - Predicted) / True.
  EXPECT_DOUBLE_EQ(relative_error(10.0, 8.0), 0.2);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 12.0), -0.2);
  EXPECT_DOUBLE_EQ(relative_error(10.0, 10.0), 0.0);
}

TEST(RelativeErrorTest, ZeroTruthConvention) {
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 5.0), -1.0);
  EXPECT_DOUBLE_EQ(relative_error(0.0, -5.0), 1.0);
}

TEST(RelativeErrorsTest, ElementWise) {
  const std::vector<double> truth{10.0, 20.0};
  const std::vector<double> predicted{8.0, 25.0};
  const auto errors = relative_errors(truth, predicted);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_DOUBLE_EQ(errors[0], 0.2);
  EXPECT_DOUBLE_EQ(errors[1], -0.25);
}

TEST(RelativeErrorsTest, RejectsMismatch) {
  EXPECT_THROW(
      relative_errors(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
      std::invalid_argument);
}

}  // namespace
}  // namespace minicost::stats
