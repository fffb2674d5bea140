#include "forecast/evaluate.hpp"

#include <algorithm>
#include <stdexcept>

#include "forecast/arima.hpp"
#include "stats/descriptive.hpp"
#include "stats/error_metrics.hpp"
#include "util/thread_pool.hpp"

namespace minicost::forecast {

BacktestResult backtest(const trace::RequestTrace& trace,
                        const BacktestConfig& config, util::ThreadPool& pool) {
  if (trace.days() < config.train_days + config.horizon)
    throw std::invalid_argument("backtest: trace shorter than train + horizon");
  if (config.train_days < 8)
    throw std::invalid_argument("backtest: train window too short to fit");

  const auto make = config.make_forecaster
                        ? config.make_forecaster
                        : []() -> std::unique_ptr<Forecaster> {
                            return nullptr;  // sentinel: use auto_arima
                          };

  const stats::Histogram buckets = stats::paper_stddev_histogram();
  const auto& files = trace.files();
  // Each file writes only its own slot; the merge below runs in file order
  // on the calling thread, so the result does not depend on the schedule.
  std::vector<std::vector<double>> file_errors(files.size());
  std::vector<std::size_t> file_bucket(files.size(), 0);
  pool.parallel_for(0, files.size(), [&](std::size_t i) {
    const trace::FileRecord& f = files[i];
    const std::span<const double> history(f.reads.data(), config.train_days);

    std::vector<double> predicted;
    if (auto forecaster = make()) {
      forecaster->fit(history);
      predicted = forecaster->forecast(config.horizon);
    } else {
      Arima model = auto_arima(history);
      predicted = model.forecast(config.horizon);
    }
    if (config.clamp_nonnegative) {
      for (double& value : predicted) value = std::max(0.0, value);
    }

    std::vector<double> truth(
        f.reads.begin() + static_cast<std::ptrdiff_t>(config.train_days),
        f.reads.begin() +
            static_cast<std::ptrdiff_t>(config.train_days + config.horizon));
    file_errors[i] = stats::relative_errors(truth, predicted);

    // Bucket by the variability measured over the *training* window — the
    // only information an online system has when it must decide how much to
    // trust the forecast.
    const double m = stats::mean(history);
    const double cv = m > 0.0 ? stats::stddev(history) / m : 0.0;
    file_bucket[i] = buckets.bucket_of(cv);
  });

  BacktestResult result;
  result.bucket_errors.assign(buckets.bucket_count(), {});
  std::vector<std::uint64_t> bucket_files(buckets.bucket_count(), 0);
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto& sink = result.bucket_errors[file_bucket[i]];
    sink.insert(sink.end(), file_errors[i].begin(), file_errors[i].end());
    ++bucket_files[file_bucket[i]];
  }

  for (std::size_t b = 0; b < buckets.bucket_count(); ++b) {
    BucketErrorSummary summary;
    summary.label = buckets.label(b);
    summary.files = bucket_files[b];
    const auto& errors = result.bucket_errors[b];
    if (!errors.empty()) {
      summary.p1 = stats::percentile(errors, 1.0);
      summary.p50 = stats::percentile(errors, 50.0);
      summary.p99 = stats::percentile(errors, 99.0);
      double abs_sum = 0.0;
      for (double e : errors) abs_sum += std::abs(e);
      summary.mean_abs = abs_sum / static_cast<double>(errors.size());
    }
    result.summary.push_back(std::move(summary));
  }
  return result;
}

}  // namespace minicost::forecast
