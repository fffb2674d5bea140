// Microbenchmarks for the forecasting substrate: ARIMA fit/predict at the
// Figure-4 workload shape, the auto-order search, and the seasonal-naive
// baseline.

#include <benchmark/benchmark.h>

#include <cmath>

#include "forecast/arima.hpp"
#include "forecast/seasonal_naive.hpp"
#include "util/rng.hpp"

namespace {

using namespace minicost;

std::vector<double> series(std::size_t n) {
  util::Rng rng(5);
  std::vector<double> xs(n);
  double level = 10.0;
  for (std::size_t t = 0; t < n; ++t) {
    level = 0.9 * level + rng.normal(1.0, 0.4);
    xs[t] = std::max(0.0, level + 3.0 * std::sin(static_cast<double>(t) / 7.0));
  }
  return xs;
}

void BM_Arima_Fit(benchmark::State& state) {
  const auto xs = series(55);
  for (auto _ : state) {
    forecast::Arima model(forecast::ArimaOrder{
        static_cast<std::size_t>(state.range(0)), 1,
        static_cast<std::size_t>(state.range(1))});
    model.fit(xs);
    benchmark::DoNotOptimize(model.innovation_variance());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Arima_Fit)->Args({1, 0})->Args({2, 1})->Args({3, 2});

void BM_Arima_Forecast7(benchmark::State& state) {
  const auto xs = series(55);
  forecast::Arima model(forecast::ArimaOrder{2, 1, 1});
  model.fit(xs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forecast(7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Arima_Forecast7);

void BM_AutoArima(benchmark::State& state) {
  const auto xs = series(55);
  for (auto _ : state) {
    forecast::Arima model = forecast::auto_arima(xs);
    benchmark::DoNotOptimize(model.forecast(7));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AutoArima)->Unit(benchmark::kMicrosecond);

void BM_SeasonalNaive_FitForecast(benchmark::State& state) {
  const auto xs = series(55);
  for (auto _ : state) {
    forecast::SeasonalNaive model(7);
    model.fit(xs);
    benchmark::DoNotOptimize(model.forecast(7));
  }
}
BENCHMARK(BM_SeasonalNaive_FitForecast);

}  // namespace
