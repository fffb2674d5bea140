#pragma once
// Forecast error metrics. The paper's Figure 4 reports the relative error
// (true - predicted) / true at the 1st, 50th, and 99th percentiles.

#include <span>
#include <vector>

namespace minicost::stats {

/// The paper's prediction error: (true - predicted) / true. When the true
/// value is 0 the error is defined as 0 if the prediction is also 0, else 1
/// (fully wrong) with the sign of the miss.
double relative_error(double truth, double predicted) noexcept;

/// Element-wise relative errors; throws std::invalid_argument on mismatch.
std::vector<double> relative_errors(std::span<const double> truth,
                                    std::span<const double> predicted);

}  // namespace minicost::stats
