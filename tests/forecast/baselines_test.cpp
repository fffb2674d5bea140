#include <gtest/gtest.h>

#include "forecast/seasonal_naive.hpp"

namespace minicost::forecast {
namespace {

TEST(SeasonalNaiveTest, RepeatsLastSeason) {
  SeasonalNaive model(3);
  model.fit(std::vector<double>{9.0, 9.0, 9.0, 1.0, 2.0, 3.0});
  const auto forecast = model.forecast(7);
  const std::vector<double> expected{1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0};
  EXPECT_EQ(forecast, expected);
}

TEST(SeasonalNaiveTest, WeeklyDefaultMatchesPaperCycle) {
  SeasonalNaive model;  // period 7
  std::vector<double> xs;
  for (int w = 0; w < 4; ++w) {
    for (int d = 0; d < 7; ++d) xs.push_back(static_cast<double>(d));
  }
  model.fit(xs);
  const auto forecast = model.forecast(7);
  for (int d = 0; d < 7; ++d) EXPECT_DOUBLE_EQ(forecast[d], d);
}

TEST(SeasonalNaiveTest, RejectsZeroPeriod) {
  EXPECT_THROW(SeasonalNaive(0), std::invalid_argument);
}

TEST(SeasonalNaiveTest, FitRequiresFullSeason) {
  SeasonalNaive model(7);
  EXPECT_THROW(model.fit(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(SeasonalNaiveTest, ForecastBeforeFitThrows) {
  SeasonalNaive model(2);
  EXPECT_THROW(model.forecast(1), std::logic_error);
}

TEST(SeasonalNaiveTest, NameEncodesPeriod) {
  EXPECT_EQ(SeasonalNaive(7).name(), "seasonal-naive(7)");
}

}  // namespace
}  // namespace minicost::forecast
