#pragma once
// The delta codec's reference decoder, in two plain passes: it unpacks
// every zigzag value into a buffer first (unpack_blocks), then rebuilds the
// doubles series by series. DeltaCodec::decode does both in one pass;
// codec_test.cpp checks it against this decoder, byte for byte and error
// for error, on generated streams.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/chunk_codec.hpp"

namespace minicost::codec::oracle {

/// Unpacks exactly `count` values from `in`, appending to `values`.
/// Returns false on a malformed stream (bad width byte, truncated block);
/// never reads out of bounds. On success *consumed is the bytes read.
bool unpack_blocks(std::span<const std::byte> in, std::size_t count,
                   std::vector<std::uint64_t>& values, std::size_t* consumed);

/// Fills `raw_out` (layout.raw_bytes() long) from a delta stream: unpack
/// all values, then prefix-sum each series and zero its padding. Throws
/// std::runtime_error on a malformed stream or leftover bytes.
void two_pass_decode(const ChunkLayout& layout,
                     std::span<const std::byte> encoded,
                     std::span<std::byte> raw_out);

}  // namespace minicost::codec::oracle
