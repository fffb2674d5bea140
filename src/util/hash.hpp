#pragma once
// Hashing of doubles by their bytes, for the dedup tables that find equal
// inputs before the planner does work on them: act_rows' per-day states
// (rl/a3c.cpp) and run_policy's file classes (core/planner.cpp). Every hit
// in those tables is confirmed by comparing bytes, so the hash only has to
// spread keys, and -0.0 and +0.0 (and NaN payloads) hash apart.

#include <bit>
#include <cstddef>
#include <cstdint>

namespace minicost::util {

inline std::uint64_t double_bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t word) noexcept {
  return (h ^ word) * 0x9E3779B97F4A7C15ULL;
}

/// Hashes `count` doubles' bytes with four independent multiply-xor lanes,
/// so the multiply chain is a quarter of the input long, then folds the
/// lanes.
inline std::uint64_t hash_doubles(const double* xs, std::size_t count) noexcept {
  std::uint64_t h0 = 1, h1 = 2, h2 = 3, h3 = 4;
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    h0 = hash_mix(h0, double_bits(xs[i]));
    h1 = hash_mix(h1, double_bits(xs[i + 1]));
    h2 = hash_mix(h2, double_bits(xs[i + 2]));
    h3 = hash_mix(h3, double_bits(xs[i + 3]));
  }
  for (; i < count; ++i) h0 = hash_mix(h0, double_bits(xs[i]));
  return h0 ^ std::rotl(h1, 16) ^ std::rotl(h2, 32) ^ std::rotl(h3, 48);
}

/// murmur3's 64-bit finalizer: every output bit depends on every input
/// bit, so a table can take a partition from the high bits and a slot from
/// the low bits.
inline std::uint64_t hash_finish(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

}  // namespace minicost::util
