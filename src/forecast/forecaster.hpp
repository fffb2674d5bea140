#pragma once
// Common interface for the time-series forecasters. The paper uses ARIMA
// (Sec. 3.1) to predict the next 7 daily request frequencies from the first
// two months of history; seasonal-naive is the cheaper baseline that
// Forecast-MPC plans with by default.

#include <span>
#include <vector>

namespace minicost::forecast {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Fits the model to the history. Throws std::invalid_argument if the
  /// series is too short for the model's order.
  virtual void fit(std::span<const double> history) = 0;

  /// Predicts the next `horizon` values after the fitted history.
  /// Must be called after fit().
  virtual std::vector<double> forecast(std::size_t horizon) const = 0;

  /// Human-readable model id, e.g. "arima(2,1,1)".
  virtual std::string name() const = 0;
};

}  // namespace minicost::forecast
