#pragma once
// Forecast backtesting over a trace: the paper's Figure 4 protocol. For
// each file, fit on the first `train_days` of daily read frequencies,
// predict the next `horizon` days, and record the relative errors
// (true - predicted) / true, then report error percentiles per
// variability bucket.

#include <functional>
#include <memory>
#include <vector>

#include "forecast/forecaster.hpp"
#include "stats/histogram.hpp"
#include "trace/trace.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::forecast {

struct BacktestConfig {
  std::size_t train_days = 55;  ///< "first two months" of the 62-day trace
  std::size_t horizon = 7;      ///< "the next 7 days"
  /// Factory producing a fresh forecaster per file. Defaults (empty) to
  /// auto_arima.
  std::function<std::unique_ptr<Forecaster>()> make_forecaster;
  /// Forecasted frequencies below zero are clamped to zero (frequencies
  /// cannot be negative; ARIMA does not know that).
  bool clamp_nonnegative = true;
};

struct BucketErrorSummary {
  std::string label;       ///< bucket label, e.g. "0.1-0.3"
  std::uint64_t files = 0; ///< files contributing errors
  double p1 = 0.0;         ///< 1st percentile of relative error
  double p50 = 0.0;        ///< median
  double p99 = 0.0;        ///< 99th percentile
  double mean_abs = 0.0;   ///< mean |relative error| (extra diagnostic)
};

struct BacktestResult {
  /// All relative errors grouped by variability bucket.
  std::vector<std::vector<double>> bucket_errors;
  std::vector<BucketErrorSummary> summary;
};

/// Runs the backtest on `pool`, one file per task. Throws
/// std::invalid_argument if the trace is shorter than train_days + horizon.
/// Errors merge in file order, so the result is bitwise the same for every
/// pool size.
BacktestResult backtest(const trace::RequestTrace& trace,
                        const BacktestConfig& config, util::ThreadPool& pool);

}  // namespace minicost::forecast
