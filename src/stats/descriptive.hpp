#pragma once
// Descriptive statistics used throughout the trace analysis (Sec. 3 of the
// paper) and by the experiment harnesses.

#include <cstddef>
#include <span>
#include <vector>

namespace minicost::stats {

double sum(std::span<const double> xs) noexcept;
double mean(std::span<const double> xs) noexcept;

/// Sample variance with Bessel's correction (divide by n-1), matching the
/// paper's Eq. (1). Returns 0 for n < 2.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation, sqrt(variance). This is the per-file "daily
/// request frequency standard deviation" statistic of Figures 2-4 and 8.
double stddev(std::span<const double> xs) noexcept;

double min(std::span<const double> xs) noexcept;
double max(std::span<const double> xs) noexcept;

/// Percentile in [0, 100] with linear interpolation between order
/// statistics (the "exclusive" convention used by NumPy's default).
/// Throws std::invalid_argument on empty input or p outside [0, 100].
double percentile(std::vector<double> xs, double p);

double median(std::vector<double> xs);

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace minicost::stats
