#include "stats/histogram.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace minicost::stats {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.empty()) throw std::invalid_argument("Histogram: no edges");
  if (!std::is_sorted(edges_.begin(), edges_.end()) ||
      std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::invalid_argument("Histogram: edges must be strictly increasing");
  }
  counts_.assign(edges_.size(), 0);
}

std::size_t Histogram::bucket_of(double value) const noexcept {
  // upper_bound returns the first edge > value; the bucket is the one before.
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  if (it == edges_.begin()) return 0;  // below the first edge: clamp
  return static_cast<std::size_t>(it - edges_.begin()) - 1;
}

void Histogram::add(double value) noexcept { ++counts_[bucket_of(value)]; }

std::uint64_t Histogram::total() const noexcept {
  std::uint64_t n = 0;
  for (auto c : counts_) n += c;
  return n;
}

double Histogram::share(std::size_t bucket) const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  return static_cast<double>(count(bucket)) / static_cast<double>(n);
}

std::string Histogram::label(std::size_t bucket) const {
  if (bucket >= edges_.size()) throw std::out_of_range("Histogram::label");
  std::ostringstream out;
  if (bucket + 1 == edges_.size()) {
    out << '>' << edges_[bucket];
  } else {
    out << edges_[bucket] << '-' << edges_[bucket + 1];
  }
  return out.str();
}

Histogram paper_stddev_histogram() {
  return Histogram({0.0, 0.1, 0.3, 0.5, 0.8});
}

std::vector<double> paper_fig2_shares() {
  return {0.8175, 0.0993, 0.0539, 0.0230, 0.0063};
}

}  // namespace minicost::stats
