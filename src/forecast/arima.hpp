#pragma once
// ARIMA(p, d, q) implemented from scratch (no external stats library):
//
//  * the series is differenced d times;
//  * ARMA(p, q) coefficients are estimated with the Hannan-Rissanen
//    two-stage procedure: a long autoregression fitted by OLS provides
//    innovation estimates, then the ARMA regression (lags of the series and
//    of the innovations) is fitted by OLS;
//  * forecasts run the ARMA recursion forward with future innovations set
//    to their mean (zero), then integrate d times back to the original
//    scale.
//
// This reproduces the paper's Sec. 3.1 protocol: fit on the first two
// months of daily request frequencies, predict the next 7 days (Figure 4).

#include <cstddef>
#include <string>
#include <vector>

#include "forecast/forecaster.hpp"

namespace minicost::forecast {

struct ArimaOrder {
  std::size_t p = 1;  ///< autoregressive lags
  std::size_t d = 0;  ///< differencing order
  std::size_t q = 0;  ///< moving-average lags
};

class Arima final : public Forecaster {
 public:
  /// Throws std::invalid_argument if d > 2 (never needed for request
  /// frequencies and numerically fragile beyond that).
  explicit Arima(ArimaOrder order);

  void fit(std::span<const double> history) override;
  std::vector<double> forecast(std::size_t horizon) const override;
  std::string name() const override;

  const ArimaOrder& order() const noexcept { return order_; }
  /// AR coefficients phi_1..phi_p (valid after fit).
  const std::vector<double>& ar() const noexcept { return ar_; }
  /// MA coefficients theta_1..theta_q (valid after fit).
  const std::vector<double>& ma() const noexcept { return ma_; }
  /// In-sample innovation variance (valid after fit).
  double innovation_variance() const noexcept { return sigma2_; }

  /// Applies `d` rounds of first differencing.
  static std::vector<double> difference(std::span<const double> series,
                                        std::size_t d);

 private:
  bool fitted_ = false;
  ArimaOrder order_;
  std::vector<double> ar_;
  std::vector<double> ma_;
  double intercept_ = 0.0;
  double sigma2_ = 0.0;

  // State captured at fit() time, needed by the forecast recursion.
  std::vector<double> diffed_;            ///< differenced series
  std::vector<double> residuals_;         ///< in-sample innovations
  std::vector<std::vector<double>> tails_;  ///< last value of each
                                            ///< integration level, see .cpp
};

/// Picks (p, d, q) by a small grid search minimizing AICc of the
/// Hannan-Rissanen fit, then returns the fitted model. Grid: p in [0, 3],
/// d in [0, 1], q in [0, 2].
Arima auto_arima(std::span<const double> history);

}  // namespace minicost::forecast
