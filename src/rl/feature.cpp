#include "rl/feature.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace minicost::rl {
namespace {

// Scale for log features: log1p(x) / kLogScale keeps values ~O(1). Smaller
// scales spread the low-rate region (where the tier crossovers sit,
// ~0.2-2.5 reads/day under the Azure preset) over a wider feature range,
// which materially improves the policy's boundary resolution.
constexpr double kLogScale = 4.0;

}  // namespace

Featurizer::Featurizer(FeatureConfig config) : config_(config) {
  if (config.history_len == 0)
    throw std::invalid_argument("Featurizer: history_len must be > 0");
}

std::size_t Featurizer::aux_count() const noexcept {
  return 2 + pricing::kTierCount + (config_.include_day_of_week ? 7 : 0) +
         (config_.include_summary ? 2 : 0);
}

std::size_t Featurizer::feature_count() const noexcept {
  return config_.history_len + aux_count();
}

std::vector<double> Featurizer::encode(const trace::FileRecord& file,
                                       std::size_t day,
                                       pricing::StorageTier current_tier) const {
  std::vector<double> out;
  encode_into(file, day, current_tier, out);
  return out;
}

void Featurizer::encode_into(const trace::FileRecord& file, std::size_t day,
                             pricing::StorageTier current_tier,
                             std::vector<double>& out) const {
  out.resize(feature_count());
  encode_into(file, day, current_tier, std::span<double>(out));
}

Featurizer::RawState Featurizer::raw_state(const trace::FileRecord& file,
                                           std::size_t day) const {
  const std::size_t h = config_.history_len;
  if (day < h || day > file.reads.size() || day > file.writes.size())
    throw std::out_of_range("Featurizer::encode: day outside usable range");
  return {std::span<const double>(file.reads).subspan(day - h, h),
          file.writes[day - 1], file.size_gb};
}

void Featurizer::encode_into(const trace::FileRecord& file, std::size_t day,
                             pricing::StorageTier current_tier,
                             std::span<double> out) const {
  const RawState state = raw_state(file, day);
  if (out.size() != feature_count())
    throw std::invalid_argument("Featurizer::encode_into: bad row width");
  const std::size_t h = config_.history_len;
  const double inv_scale = 1.0 / kLogScale;

  // Read history, oldest first so the conv kernel sees time order.
  for (std::size_t i = 0; i < h; ++i)
    out[i] = std::log1p(state.reads[i]) * inv_scale;

  std::size_t k = h;
  // Most recent write frequency (yesterday's, the newest observed).
  out[k++] = std::log1p(state.writes) * inv_scale;
  out[k++] = std::log1p(state.size_gb);
  for (pricing::StorageTier t : pricing::all_tiers())
    out[k++] = t == current_tier ? 1.0 : 0.0;
  if (config_.include_day_of_week) {
    for (std::size_t d = 0; d < 7; ++d) out[k++] = (day % 7 == d) ? 1.0 : 0.0;
  }
  if (config_.include_summary) {
    const std::size_t week = std::min<std::size_t>(7, h);
    double mean7 = 0.0, mean14 = 0.0;
    for (std::size_t i = 0; i < week; ++i) mean7 += state.reads[h - week + i];
    for (std::size_t i = 0; i < h; ++i) mean14 += state.reads[i];
    mean7 /= static_cast<double>(week);
    mean14 /= static_cast<double>(h);
    out[k++] = std::log1p(mean7) * inv_scale;
    out[k++] = std::log1p(mean14) * inv_scale;
  }
}

}  // namespace minicost::rl
