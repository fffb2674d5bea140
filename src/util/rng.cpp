#include "util/rng.hpp"

#include <cmath>

namespace minicost::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling: discard draws below 2^64 mod range so that the
  // subsequent modulo is exactly uniform.
  const std::uint64_t threshold = (~range + 1) % range;
  std::uint64_t x = next_u64();
  while (x < threshold) x = next_u64();
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sd) noexcept { return mean + sd * normal(); }

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction; exact sampling is not
    // needed at these magnitudes and this keeps large-mean draws O(1).
    const double draw = normal(mean, std::sqrt(mean)) + 0.5;
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw);
  }
  const double limit = std::exp(-mean);
  double product = next_double();
  std::uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= next_double();
  }
  return count;
}

bool Rng::bernoulli(double p) noexcept { return next_double() < p; }

Rng Rng::fork(std::uint64_t stream) const noexcept {
  SplitMix64 sm(seed_ ^ (0xA0761D6478BD642FULL + stream * 0xE7037ED1A0B428DBULL));
  return Rng(sm.next());
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.empty() ? 0 : weights.size() - 1;
}

}  // namespace minicost::util
