#pragma once
// State featurization. The MDP state (F_r, F_w, D, Γ) is encoded for the
// neural networks as:
//   [ log-scaled read history (history_len days, newest last) |
//     log-scaled write frequency | log-scaled size |
//     current-tier one-hot (Γ) | day-of-week one-hot (7) ]
// The day-of-week channel exposes the weekly request cycle (Sec. 3.1) that
// the convolution alone cannot phase-lock without an absolute reference.

#include <span>
#include <vector>

#include "pricing/tier.hpp"
#include "trace/trace.hpp"

namespace minicost::rl {

struct FeatureConfig {
  std::size_t history_len = 14;  ///< days of read history in the state
  /// Scale for log features: log1p(x) / log_scale keeps values ~O(1).
  /// Smaller scales spread the low-rate region (where the tier crossovers
  /// sit, ~0.2-2.5 reads/day under the Azure preset) over a wider feature
  /// range, which materially improves the policy's boundary resolution.
  double log_scale = 4.0;
  bool include_day_of_week = true;
  /// Adds two summary features: log-scaled means of the last 7 and last 14
  /// days of reads (denoised rate estimates near the decision boundary).
  bool include_summary = true;
};

class Featurizer {
 public:
  explicit Featurizer(FeatureConfig config);

  const FeatureConfig& config() const noexcept { return config_; }

  std::size_t history_len() const noexcept { return config_.history_len; }
  /// Feature-vector width = history + aux.
  std::size_t feature_count() const noexcept;
  /// Aux features after the history prefix (write, size, tier, [dow]).
  std::size_t aux_count() const noexcept;

  /// The part of `file` that encode_into reads on decision day `day`: the
  /// read history [day - history_len, day), yesterday's writes and the
  /// size. The encoded row is a pure function of this state, the current
  /// tier and the day, so files whose states match byte for byte (with the
  /// same tier, on the same day) encode to the same bytes.
  struct RawState {
    std::span<const double> reads;  ///< history_len days, oldest first
    double writes = 0.0;
    double size_gb = 0.0;
  };

  /// `file`'s RawState on `day`. Requires history_len <= day <=
  /// reads.size() and day <= writes.size(); throws std::out_of_range
  /// otherwise.
  RawState raw_state(const trace::FileRecord& file, std::size_t day) const;

  /// Encodes the state of `file` on day `day` (the decision day: the
  /// history covers days [day - history_len, day)). Requires
  /// day >= history_len; throws std::out_of_range otherwise.
  std::vector<double> encode(const trace::FileRecord& file, std::size_t day,
                             pricing::StorageTier current_tier) const;

  /// In-place variant to avoid allocation on hot paths.
  void encode_into(const trace::FileRecord& file, std::size_t day,
                   pricing::StorageTier current_tier,
                   std::vector<double>& out) const;

  /// Span variant for batch buffers: writes one feature row into `out`,
  /// which must be exactly feature_count() wide.
  void encode_into(const trace::FileRecord& file, std::size_t day,
                   pricing::StorageTier current_tier,
                   std::span<double> out) const;

 private:
  FeatureConfig config_;
};

}  // namespace minicost::rl
