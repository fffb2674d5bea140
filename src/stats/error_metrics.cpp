#include "stats/error_metrics.hpp"

#include <stdexcept>
#include <string>

namespace minicost::stats {
namespace {

void check_same_size(std::span<const double> a, std::span<const double> b,
                     const char* what) {
  if (a.size() != b.size()) throw std::invalid_argument(std::string(what) + ": length mismatch");
}

}  // namespace

double relative_error(double truth, double predicted) noexcept {
  if (truth == 0.0) {
    if (predicted == 0.0) return 0.0;
    return predicted > 0.0 ? -1.0 : 1.0;
  }
  return (truth - predicted) / truth;
}

std::vector<double> relative_errors(std::span<const double> truth,
                                    std::span<const double> predicted) {
  check_same_size(truth, predicted, "relative_errors");
  std::vector<double> errors(truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i)
    errors[i] = relative_error(truth[i], predicted[i]);
  return errors;
}

}  // namespace minicost::stats
