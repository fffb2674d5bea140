#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace minicost::stats {

double sum(std::span<const double> xs) noexcept {
  // Kahan summation: the figure harnesses sum millions of per-file costs
  // whose magnitudes span several orders.
  double total = 0.0;
  double carry = 0.0;
  for (double x : xs) {
    const double y = x - carry;
    const double t = total + y;
    carry = (t - total) - y;
    total = t;
  }
  return total;
}

double mean(std::span<const double> xs) noexcept {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double m = mean(xs);
  double accum = 0.0;
  for (double x : xs) accum += (x - m) * (x - m);
  return accum / static_cast<double>(n - 1);
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double min(std::span<const double> xs) noexcept {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) noexcept {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p must be in [0, 100]");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace minicost::stats
