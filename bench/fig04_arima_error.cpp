// Figure 4 — "Distribution of request frequency prediction errors":
// fit ARIMA on the first ~8 weeks of each file's daily read series, predict
// the next 7 days, and report the 1st / 50th / 99th percentile of
// (true - predicted) / true per variability bucket.

#include <iostream>

#include "common.hpp"
#include "forecast/evaluate.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace minicost;
  std::cout << "fig04: ARIMA 7-day prediction errors (Figure 4)\n";
  const benchx::Workload workload = benchx::standard_workload();

  forecast::BacktestConfig config;
  config.train_days = workload.full.days() - 7;  // "first two months"
  config.horizon = 7;                            // "next 7 days"
  util::ThreadPool pool;  // hardware-sized
  const forecast::BacktestResult result =
      forecast::backtest(workload.full, config, pool);

  util::Table table({"bucket", "files", "p1", "median", "p99", "mean |err|"});
  for (const auto& bucket : result.summary) {
    table.add_row({bucket.label, util::format_count(bucket.files),
                   util::format_double(bucket.p1, 3),
                   util::format_double(bucket.p50, 3),
                   util::format_double(bucket.p99, 3),
                   util::format_double(bucket.mean_abs, 3)});
  }
  benchx::emit("fig04", "Figure 4: ARIMA relative prediction errors", table);
  benchx::expectation(
      "error percentiles widen monotonically with the variability bucket — "
      "flash-crowd files are the hardest to predict (and, per Figure 3, the "
      "most valuable to re-tier)");
  return 0;
}
