#include "stats/exact_sum.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace minicost::stats {
namespace {

constexpr std::uint64_t kLimbMask = 0xFFFFFFFFULL;

// x = ± m * 2^(p - 1074) with m < 2^53 and p >= 0: bit position 0 of the
// accumulator weighs 2^-1074 (the least subnormal), and subnormals
// (biased == 0) share the exponent of the smallest normal.
struct Decomposed {
  bool negative;
  std::uint64_t m;
  std::uint64_t p;
};

Decomposed decompose(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t biased = (bits >> 52) & 0x7FF;
  const std::uint64_t fraction = bits & ((1ULL << 52) - 1);
  return {(bits >> 63) != 0,
          biased == 0 ? fraction : fraction | (1ULL << 52),
          (biased == 0 ? 1 : biased) - 1};
}

}  // namespace

void ExactSum::add(double x) {
  if (!std::isfinite(x))
    throw std::invalid_argument("ExactSum::add: non-finite addend");
  if (x == 0.0) return;  // ±0 contributes nothing (and has no mantissa bits)

  const auto [negative, m, p] = decompose(x);
  const std::size_t limb = p >> 5;
  const std::uint64_t shift = p & 31;
  // m << shift spans up to 84 bits; split it over three 32-bit limbs.
  const std::uint64_t low = m << shift;                       // bits 0..63
  const std::uint64_t high = shift == 0 ? 0 : m >> (64 - shift);  // bits 64..
  const std::int64_t c0 = static_cast<std::int64_t>(low & kLimbMask);
  const std::int64_t c1 = static_cast<std::int64_t>(low >> 32);
  const std::int64_t c2 = static_cast<std::int64_t>(high);
  if (negative) {
    limbs_[limb] -= c0;
    limbs_[limb + 1] -= c1;
    limbs_[limb + 2] -= c2;
  } else {
    limbs_[limb] += c0;
    limbs_[limb + 1] += c1;
    limbs_[limb + 2] += c2;
  }
  if (++pending_ >= kMaxPending) normalize();
}

void ExactSum::add_scaled(double x, std::uint32_t k) {
  if (k == 1) return add(x);
  if (!std::isfinite(x))
    throw std::invalid_argument("ExactSum::add_scaled: non-finite addend");
  if (x == 0.0 || k == 0) return;

  const auto [negative, m, p] = decompose(x);
  // m * k < 2^85, as 32-bit digits d0 + d1 * 2^32 + d2 * 2^64 (d2 < 2^21):
  // m's low digit times k fits 64 bits, its high part (< 2^21) times k plus
  // that product's carry fits 54.
  const std::uint64_t low_product = (m & kLimbMask) * k;
  const std::uint64_t high_product = (m >> 32) * k + (low_product >> 32);
  const std::uint64_t lo = (low_product & kLimbMask) | (high_product << 32);
  const std::uint64_t hi = high_product >> 32;
  // (m * k) << shift spans up to 116 bits; split it over four limbs.
  const std::size_t limb = p >> 5;
  const std::uint64_t shift = p & 31;
  const std::uint64_t low = lo << shift;  // bits 0..63
  const std::uint64_t high =
      (hi << shift) | (shift == 0 ? 0 : lo >> (64 - shift));  // bits 64..116
  const std::int64_t sign = negative ? -1 : 1;
  limbs_[limb] += sign * static_cast<std::int64_t>(low & kLimbMask);
  limbs_[limb + 1] += sign * static_cast<std::int64_t>(low >> 32);
  limbs_[limb + 2] += sign * static_cast<std::int64_t>(high & kLimbMask);
  limbs_[limb + 3] += sign * static_cast<std::int64_t>(high >> 32);
  if (++pending_ >= kMaxPending) normalize();
}

void ExactSum::add(const ExactSum& other) noexcept {
  normalize();
  other.normalize();
  for (std::size_t i = 0; i < kLimbs; ++i) limbs_[i] += other.limbs_[i];
  pending_ = 2;  // at most one normalized state's worth per limb was added
}

void ExactSum::normalize() const noexcept {
  // Floored carry propagation: every limb ends in [0, 2^32) except the top
  // one, which keeps the (possibly negative) overall carry and thus the sign
  // of the whole sum.
  std::int64_t carry = 0;
  for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
    const std::int64_t v = limbs_[i] + carry;
    const std::int64_t r = v & static_cast<std::int64_t>(kLimbMask);
    carry = (v - r) >> 32;
    limbs_[i] = r;
  }
  limbs_[kLimbs - 1] += carry;
  pending_ = 0;
}

double ExactSum::value() const noexcept {
  normalize();

  // Sign and magnitude: if the top (signed) limb is negative the exact sum
  // is negative; re-normalizing the negated limbs yields its magnitude.
  std::array<std::int64_t, kLimbs> mag = limbs_;
  const bool negative = mag[kLimbs - 1] < 0;
  if (negative) {
    std::int64_t carry = 0;
    for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
      const std::int64_t v = -mag[i] + carry;
      const std::int64_t r = v & static_cast<std::int64_t>(kLimbMask);
      carry = (v - r) >> 32;
      mag[i] = r;
    }
    mag[kLimbs - 1] = -mag[kLimbs - 1] + carry;
  }

  std::size_t top = kLimbs;
  while (top > 0 && mag[top - 1] == 0) --top;
  if (top == 0) return 0.0;

  // Absolute index of the highest set bit: value in [2^B, 2^(B+1)).
  const auto top_limb = static_cast<std::uint64_t>(mag[top - 1]);
  const std::size_t B =
      32 * (top - 1) + static_cast<std::size_t>(std::bit_width(top_limb)) - 1;

  const auto bit_at = [&](std::size_t pos) -> std::uint64_t {
    return (static_cast<std::uint64_t>(mag[pos >> 5]) >> (pos & 31)) & 1ULL;
  };

  if (B < 53) {
    // Fewer than 54 significant bits: the sum is an exactly representable
    // (possibly subnormal) double; no rounding happens.
    std::uint64_t m = 0;
    for (std::size_t pos = 0; pos <= B; ++pos) m |= bit_at(pos) << pos;
    const double r = std::ldexp(static_cast<double>(m), -1074);
    return negative ? -r : r;
  }

  // 53-bit mantissa [lo, B], round bit lo-1, sticky = any bit below that.
  const std::size_t lo = B - 52;
  std::uint64_t m = 0;
  for (std::size_t k = 0; k < 53; ++k) m |= bit_at(lo + k) << k;
  const bool round_bit = bit_at(lo - 1) != 0;
  bool sticky = false;
  for (std::size_t limb = 0; limb < ((lo - 1) >> 5) && !sticky; ++limb)
    sticky = mag[limb] != 0;
  for (std::size_t pos = ((lo - 1) >> 5) << 5; pos + 1 < lo && !sticky; ++pos)
    sticky = bit_at(pos) != 0;

  std::int64_t exp = static_cast<std::int64_t>(lo) - 1074;
  if (round_bit && (sticky || (m & 1ULL) != 0)) {
    if (++m == (1ULL << 53)) {
      m = 1ULL << 52;
      ++exp;
    }
  }
  // B >= 53 puts the result at or above 2^-1021, i.e. in the normal range,
  // so ldexp introduces no second rounding (overflow to ±inf is the correct
  // IEEE outcome for sums beyond the finite range).
  const double r = std::ldexp(static_cast<double>(m), static_cast<int>(exp));
  return negative ? -r : r;
}

}  // namespace minicost::stats
