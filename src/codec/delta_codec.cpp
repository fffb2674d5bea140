#include "codec/delta_codec.hpp"

#include <bit>
#include <cstring>

namespace minicost::codec {

std::optional<std::int64_t> integral_bits(double v) noexcept {
  // The cast itself is UB for values outside int64's range, so bound first.
  // 2^62 is far beyond any plausible daily request count and keeps the
  // later per-series deltas inside int64 too (|a - b| <= 2^63 - 1).
  constexpr double kBound = 4611686018427387904.0;  // 2^62
  if (!(v >= -kBound && v <= kBound)) return std::nullopt;
  const auto i = static_cast<std::int64_t>(v);
  // Bit-pattern equality, not ==: -0.0 == 0.0 yet decoding would flip its
  // sign bit, and bills must come back byte-identical.
  if (std::bit_cast<std::uint64_t>(static_cast<double>(i)) !=
      std::bit_cast<std::uint64_t>(v))
    return std::nullopt;
  return i;
}

void pack_blocks(std::span<const std::uint64_t> values,
                 std::vector<std::byte>& out) {
  for (std::size_t begin = 0; begin < values.size(); begin += kBlockValues) {
    const std::size_t n = std::min(kBlockValues, values.size() - begin);
    std::uint64_t max = 0;
    for (std::size_t i = 0; i < n; ++i) max |= values[begin + i];
    const auto width =
        static_cast<unsigned>(max == 0 ? 0 : 64 - std::countl_zero(max));
    out.push_back(static_cast<std::byte>(width));
    if (width == 0) continue;

    // LSB-first little-endian bit stream: accumulate into a 64-bit window
    // and spill whole bytes. width can be 64, so the shift of the residue
    // into the window must go through 128-bit-free arithmetic: append value
    // bits only while the window holds fewer than 8 spare bits.
    std::uint64_t window = 0;
    unsigned filled = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t v = values[begin + i];
      unsigned remaining = width;
      while (remaining > 0) {
        const unsigned take = std::min(remaining, 64 - filled);
        window |= (take == 64 ? v : (v & ((1ULL << take) - 1))) << filled;
        filled += take;
        v = take == 64 ? 0 : v >> take;
        remaining -= take;
        while (filled >= 8) {
          out.push_back(static_cast<std::byte>(window & 0xff));
          window >>= 8;
          filled -= 8;
        }
      }
    }
    if (filled > 0) out.push_back(static_cast<std::byte>(window & 0xff));
  }
}

}  // namespace minicost::codec
