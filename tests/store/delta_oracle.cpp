#include "delta_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "codec/delta_codec.hpp"

namespace minicost::codec::oracle {

bool unpack_blocks(std::span<const std::byte> in, std::size_t count,
                   std::vector<std::uint64_t>& values,
                   std::size_t* consumed) {
  std::size_t pos = 0;
  std::size_t produced = 0;
  while (produced < count) {
    if (pos >= in.size()) return false;  // truncated: missing width byte
    const auto width = static_cast<unsigned>(in[pos++]);
    if (width > 64) return false;
    const std::size_t n = std::min(kBlockValues, count - produced);
    if (width == 0) {
      values.insert(values.end(), n, 0);
      produced += n;
      continue;
    }
    const std::size_t packed = (n * width + 7) / 8;
    if (packed > in.size() - pos) return false;  // truncated block
    std::uint64_t window = 0;
    unsigned filled = 0;
    std::size_t byte_pos = pos;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      unsigned got = 0;
      while (got < width) {
        if (filled == 0) {
          window = static_cast<std::uint64_t>(in[byte_pos++]);
          filled = 8;
        }
        const unsigned take = std::min(width - got, filled);
        v |= (window & ((take == 64 ? 0 : (1ULL << take)) - 1)) << got;
        window >>= take;
        filled -= take;
        got += take;
      }
      values.push_back(v);
    }
    pos += packed;
    produced += n;
  }
  if (consumed != nullptr) *consumed = pos;
  return true;
}

void two_pass_decode(const ChunkLayout& layout,
                     std::span<const std::byte> encoded,
                     std::span<std::byte> raw_out) {
  if (raw_out.size() != layout.raw_bytes())
    throw std::invalid_argument("two_pass_decode: raw size mismatch");
  const std::size_t count = layout.series_count() * layout.days;
  std::vector<std::uint64_t> zigzags;
  zigzags.reserve(count);
  std::size_t consumed = 0;
  if (!unpack_blocks(encoded, count, zigzags, &consumed) ||
      consumed != encoded.size())
    throw std::runtime_error("malformed delta stream in chunk");
  std::memset(raw_out.data(), 0, raw_out.size());
  std::size_t next = 0;
  for (std::size_t s = 0; s < layout.series_count(); ++s) {
    std::byte* series = raw_out.data() + s * layout.stride;
    std::int64_t prev = 0;
    for (std::size_t t = 0; t < layout.days; ++t) {
      prev = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(prev) +
          static_cast<std::uint64_t>(unzigzag(zigzags[next++])));
      const double v = static_cast<double>(prev);
      std::memcpy(series + t * sizeof(double), &v, sizeof v);
    }
  }
}

}  // namespace minicost::codec::oracle
