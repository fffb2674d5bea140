#pragma once
// Internals of the delta+zigzag bit-packing codec (kCodecDelta), exposed so
// the unit tests can pin the stream format and the integrality predicate
// directly. The chunk-level ChunkCodec face lives in chunk_codec.hpp.
//
// Stream format (little-endian throughout):
//
//   The chunk's logical values — for each series in layout order, its
//   `days` doubles, padding excluded — are cast to int64, delta-coded
//   *within* each series (the first value is a delta from 0), zigzag-mapped
//   to u64, concatenated into one value stream, and bit-packed in blocks:
//
//     [u8 width | ceil(n * width / 8) packed bytes] ...
//
//   Each block covers up to kBlockValues values (the last block covers the
//   remainder); `width` in [0, 64] is the smallest bit width holding every
//   zigzag value of the block, and width 0 encodes an all-zeros block in a
//   single byte — an idle series costs ~1 byte per 128 days. Values are
//   packed LSB-first into a little-endian bit stream.
//
// The codec applies only when every double in the chunk is *integral*: its
// int64 cast round-trips to the identical bit pattern (this rejects -0.0,
// NaN, infinities, fractions, and magnitudes at or beyond 2^63). Request
// traces carry daily counts, so real chunks pass; synthetic fractional-rate
// chunks make encode() return false and the writer falls back to raw.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace minicost::codec {

inline constexpr std::size_t kBlockValues = 128;

/// The int64 whose double cast is bit-identical to `v`, or nullopt.
std::optional<std::int64_t> integral_bits(double v) noexcept;

/// zigzag: interleaves sign so small-magnitude deltas pack small.
constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t z) noexcept {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Appends `values` to `out` as width-prefixed packed blocks. The chunk
/// codec's decode reads them back in the same pass that rebuilds the
/// doubles (chunk_codec.cpp); tests/store/delta_oracle.hpp keeps a
/// separate unpacker as its reference.
void pack_blocks(std::span<const std::uint64_t> values,
                 std::vector<std::byte>& out);

}  // namespace minicost::codec
