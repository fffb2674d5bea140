#pragma once
// Bucketed histograms, including the paper's canonical request-frequency
// standard-deviation buckets {0-0.1, 0.1-0.3, 0.3-0.5, 0.5-0.8, >0.8}
// used in Figures 2, 3, 4, and 8.

#include <cstdint>
#include <string>
#include <vector>

namespace minicost::stats {

/// Histogram over half-open buckets [e0,e1), [e1,e2), ..., [e_{k-1}, +inf).
/// The final bucket is unbounded above, matching the paper's ">0.8" bucket.
class Histogram {
 public:
  /// `edges` are the k lower bounds, strictly increasing; bucket i covers
  /// [edges[i], edges[i+1]) and the last covers [edges.back(), +inf).
  /// Throws std::invalid_argument if edges is empty or not increasing.
  explicit Histogram(std::vector<double> edges);

  void add(double value) noexcept;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t count(std::size_t bucket) const { return counts_.at(bucket); }
  std::uint64_t total() const noexcept;
  /// Fraction of samples in `bucket`; 0 if the histogram is empty.
  double share(std::size_t bucket) const;
  /// Index of the bucket containing `value` (values below edges[0] clamp
  /// to bucket 0).
  std::size_t bucket_of(double value) const noexcept;
  /// Label like "0.1-0.3" or ">0.8".
  std::string label(std::size_t bucket) const;
  const std::vector<double>& edges() const noexcept { return edges_; }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;
};

/// The five std-dev buckets the paper uses in every per-variability plot.
Histogram paper_stddev_histogram();

/// Paper Figure 2 bucket shares (81.75 / 9.93 / 5.39 / 2.3 / 0.63 percent),
/// as fractions. The synthetic trace generator is calibrated against these
/// and the fig02 bench verifies the calibration.
std::vector<double> paper_fig2_shares();

}  // namespace minicost::stats
