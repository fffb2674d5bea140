#pragma once
// Hashing of doubles by their bytes, and the one dedup table that finds
// equal inputs before the planner does work on them: run_policy's file
// classes (core/planner.cpp, which hashes on the pool and hands the table
// its hashes) and act_rows' per-day states (rl/a3c.cpp).
// Every hit in the table is confirmed by comparing the keys, so the hash
// only has to spread keys, and -0.0 and +0.0 (and NaN payloads) hash apart.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

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
/// bit, so a table can take its slot from the low bits.
inline std::uint64_t hash_finish(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

/// Keys 0..n-1 partitioned into classes of equal keys. Class ids follow
/// first-occurrence order, and each class's representative is its first
/// key.
struct KeyClasses {
  std::vector<std::uint32_t> class_of;        ///< per key: its class
  std::vector<std::uint32_t> representative;  ///< per class: its first key
};

/// Finds the classes of equal keys among keys 0..n-1, n = hashes.size():
/// `hashes[i]` is key i's hash (finished, so its low bits spread) and
/// `same(a, b)` says whether keys a and b are equal. Inserts the keys in
/// key order into one linear-probing table of bit_ceil(2n) slots,
/// confirming every hash hit with `same`, so the classes are exact whatever
/// the hashes. Throws std::length_error if n does not fit a 32-bit class
/// id.
template <class Same>
KeyClasses key_classes(std::span<const std::uint64_t> hashes,
                       const Same& same) {
  const std::size_t n = hashes.size();
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("key_classes: too many keys");
  KeyClasses classes;
  classes.class_of.resize(n);
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  std::vector<std::uint32_t> slots(mask + 1, 0);  // 1 + a class id, or 0
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t slot = hashes[i] & mask;; slot = (slot + 1) & mask) {
      if (slots[slot] == 0) {
        const auto id =
            static_cast<std::uint32_t>(classes.representative.size());
        classes.representative.push_back(static_cast<std::uint32_t>(i));
        classes.class_of[i] = id;
        slots[slot] = id + 1;
        break;
      }
      const std::uint32_t id = slots[slot] - 1;
      const std::uint32_t rep = classes.representative[id];
      if (hashes[rep] == hashes[i] && same(rep, i)) {
        classes.class_of[i] = id;
        break;
      }
    }
  }
  return classes;
}

/// The same, hashing key i with `hash(i)` first, in one pass in key order.
/// Throws std::length_error before it hashes when n does not fit.
template <class Hash, class Same>
KeyClasses key_classes(std::size_t n, const Hash& hash, const Same& same) {
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("key_classes: too many keys");
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) hashes[i] = hash(i);
  return key_classes(std::span<const std::uint64_t>(hashes), same);
}

}  // namespace minicost::util
