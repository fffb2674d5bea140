#include "codec/chunk_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "codec/delta_codec.hpp"
#include "codec/zstd_codec.hpp"

namespace minicost::codec {
namespace {

void check_raw_size(const ChunkLayout& layout, std::size_t got,
                    const char* who) {
  if (got != layout.raw_bytes())
    throw std::invalid_argument(std::string(who) + ": raw payload is " +
                                std::to_string(got) + " bytes, layout wants " +
                                std::to_string(layout.raw_bytes()));
}

/// Rebuilds a chunk's v1 layout from its zigzag deltas in stream order:
/// each series' running sum as doubles, then zero padding to the stride.
class SeriesWriter {
 public:
  SeriesWriter(std::byte* out, std::size_t days, std::size_t stride) noexcept
      : series_(out), days_(days), stride_(stride) {}

  /// Appends the `n` deltas that successive next() calls return.
  template <class Next>
  void put(std::size_t n, Next&& next) {
    while (n > 0) {
      const std::size_t run = std::min(n, days_ - day_);
      std::byte* out = series_ + day_ * sizeof(double);
      // Unsigned, so a crafted stream's overflow wraps instead of being UB.
      std::uint64_t sum = static_cast<std::uint64_t>(prev_);
      for (std::size_t k = 0; k < run; ++k) {
        sum += static_cast<std::uint64_t>(unzigzag(next()));
        const double v = static_cast<double>(static_cast<std::int64_t>(sum));
        std::memcpy(out + k * sizeof(double), &v, sizeof v);
      }
      prev_ = static_cast<std::int64_t>(sum);
      n -= run;
      day_ += run;
      if (day_ == days_) {
        const std::size_t values = days_ * sizeof(double);
        std::memset(series_ + values, 0, stride_ - values);
        series_ += stride_;
        day_ = 0;
        prev_ = 0;
      }
    }
  }

 private:
  std::byte* series_;
  std::size_t days_;
  std::size_t stride_;
  std::size_t day_ = 0;
  std::int64_t prev_ = 0;
};

/// Yields a block's `width`-bit values (1..64), LSB-first, one per call:
/// value i starts bit i * width of the block. `load(byte)` returns the
/// little-endian 64-bit word at that byte of the block.
template <class Load>
class BitUnpacker {
 public:
  BitUnpacker(const std::byte* block, unsigned width, Load load) noexcept
      : block_(block),
        width_(width),
        mask_(width == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width) - 1),
        load_(load) {}

  std::uint64_t operator()() {
    const std::size_t byte = bit_ / 8;
    const unsigned shift = bit_ % 8;
    bit_ += width_;
    std::uint64_t word = load_(byte);
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);
    std::uint64_t v = word >> shift;
    // A value wider than 56 bits can spill into a ninth byte, which is
    // still inside the block.
    if (shift + width_ > 64)
      v |= static_cast<std::uint64_t>(block_[byte + 8]) << (64 - shift);
    return v & mask_;
  }

 private:
  const std::byte* block_;
  unsigned width_;
  std::uint64_t mask_;
  Load load_;
  std::size_t bit_ = 0;
};

class RawCodec final : public ChunkCodec {
 public:
  std::uint32_t id() const noexcept override { return kCodecRaw; }
  std::string_view name() const noexcept override { return "raw"; }

  bool encode(const ChunkLayout& layout, std::span<const std::byte> raw,
              std::vector<std::byte>& out) const override {
    check_raw_size(layout, raw.size(), "raw encode");
    out.insert(out.end(), raw.begin(), raw.end());
    return true;
  }

  void decode(const ChunkLayout& layout, std::span<const std::byte> encoded,
              std::span<std::byte> raw_out) const override {
    check_raw_size(layout, raw_out.size(), "raw decode");
    if (encoded.size() != layout.raw_bytes())
      throw std::runtime_error("raw chunk is " + std::to_string(encoded.size()) +
                               " bytes, expected " +
                               std::to_string(layout.raw_bytes()));
    std::memcpy(raw_out.data(), encoded.data(), encoded.size());
  }
};

class DeltaCodec final : public ChunkCodec {
 public:
  std::uint32_t id() const noexcept override { return kCodecDelta; }
  std::string_view name() const noexcept override { return "delta"; }

  bool encode(const ChunkLayout& layout, std::span<const std::byte> raw,
              std::vector<std::byte>& out) const override {
    check_raw_size(layout, raw.size(), "delta encode");
    std::vector<std::uint64_t> zigzags;
    zigzags.reserve(layout.series_count() * layout.days);
    for (std::size_t s = 0; s < layout.series_count(); ++s) {
      const std::byte* series = raw.data() + s * layout.stride;
      std::int64_t prev = 0;
      for (std::size_t t = 0; t < layout.days; ++t) {
        double v = 0.0;
        std::memcpy(&v, series + t * sizeof(double), sizeof v);
        const std::optional<std::int64_t> i = integral_bits(v);
        if (!i.has_value()) return false;  // fractional chunk: fall back
        // Both operands are within +/- 2^62 (integral_bits), so the delta
        // fits int64; go through unsigned to keep the subtraction defined.
        zigzags.push_back(zigzag(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(*i) - static_cast<std::uint64_t>(prev))));
        prev = *i;
      }
    }
    pack_blocks(zigzags, out);
    return true;
  }

  void decode(const ChunkLayout& layout, std::span<const std::byte> encoded,
              std::span<std::byte> raw_out) const override {
    check_raw_size(layout, raw_out.size(), "delta decode");
    // One pass, no value buffer (Lemire & Boytsov, "Decoding billions of
    // integers per second through vectorization", SPE 2015): each block's
    // values are unpacked through a 64-bit window, unzigzagged and
    // prefix-summed within their series, and every double and every byte
    // of padding goes straight into the v1 layout.
    const auto malformed = [] {
      return std::runtime_error("malformed delta stream in chunk");
    };
    if (layout.days == 0) std::memset(raw_out.data(), 0, raw_out.size());
    SeriesWriter writer{raw_out.data(), layout.days, layout.stride};
    std::size_t remaining = layout.series_count() * layout.days;
    std::size_t pos = 0;
    while (remaining > 0) {
      if (pos >= encoded.size()) throw malformed();  // missing width byte
      const auto width = static_cast<unsigned>(encoded[pos++]);
      if (width > 64) throw malformed();
      const std::size_t n = std::min(kBlockValues, remaining);
      const std::size_t packed = (n * width + 7) / 8;
      if (packed > encoded.size() - pos) throw malformed();  // truncated
      const std::byte* block = encoded.data() + pos;
      if (width == 0) {
        writer.put(n, [] { return std::uint64_t{0}; });
      } else if (encoded.size() - pos >= packed + 8) {
        // The stream holds 8 more bytes past the block, so every value's
        // 8-byte load stays inside `encoded`.
        writer.put(n, BitUnpacker(block, width, [block](std::size_t byte) {
                     std::uint64_t word = 0;
                     std::memcpy(&word, block + byte, sizeof word);
                     return word;
                   }));
      } else {
        // Near the end of the stream: load only the block's own bytes.
        writer.put(n, BitUnpacker(block, width, [block, packed](std::size_t byte) {
                     std::uint64_t word = 0;
                     std::memcpy(&word, block + byte,
                                 std::min<std::size_t>(sizeof word, packed - byte));
                     return word;
                   }));
      }
      pos += packed;
      remaining -= n;
    }
    if (pos != encoded.size()) throw malformed();  // trailing bytes
  }
};

const RawCodec raw_codec;
const DeltaCodec delta_codec;

}  // namespace

const ChunkCodec* codec_by_id(std::uint32_t id) noexcept {
  switch (id) {
    case kCodecRaw:
      return &raw_codec;
    case kCodecDelta:
      return &delta_codec;
    default:
      return detail::zstd_codec_by_id(id);  // nullptr without zstd
  }
}

const ChunkCodec* codec_by_name(std::string_view name) noexcept {
  for (const std::uint32_t id :
       {kCodecRaw, kCodecDelta, kCodecZstd, kCodecDeltaZstd}) {
    const ChunkCodec* codec = codec_by_id(id);
    if (codec != nullptr && codec->name() == name) return codec;
  }
  return nullptr;
}

std::string_view reserved_codec_name(std::uint32_t id) noexcept {
  switch (id) {
    case kCodecRaw:
      return "raw";
    case kCodecDelta:
      return "delta";
    case kCodecZstd:
      return "zstd";
    case kCodecDeltaZstd:
      return "delta+zstd";
    default:
      return {};
  }
}

std::string available_codec_names() {
  std::string names;
  for (const std::uint32_t id :
       {kCodecRaw, kCodecDelta, kCodecZstd, kCodecDeltaZstd}) {
    const ChunkCodec* codec = codec_by_id(id);
    if (codec == nullptr) continue;
    if (!names.empty()) names += ", ";
    names += codec->name();
  }
  return names;
}

bool zstd_available() noexcept {
  return detail::zstd_codec_by_id(kCodecZstd) != nullptr;
}

EncodedChunk encode_chunk(std::uint32_t requested, const ChunkLayout& layout,
                          std::span<const std::byte> raw) {
  const ChunkCodec* codec = codec_by_id(requested);
  if (codec == nullptr) {
    const std::string_view reserved = reserved_codec_name(requested);
    throw std::invalid_argument(
        reserved.empty()
            ? "unknown codec id " + std::to_string(requested)
            : "codec '" + std::string(reserved) +
                  "' is not available in this build (MINICOST_WITH_ZSTD=OFF)");
  }
  EncodedChunk result;
  // Fallback chain: delta+zstd -> zstd -> raw; delta -> raw. A codec only
  // declines payloads (fractional chunks under delta); raw never declines.
  for (const ChunkCodec* attempt = codec; attempt != nullptr;) {
    result.bytes.clear();
    if (attempt->encode(layout, raw, result.bytes)) {
      result.codec_id = attempt->id();
      break;
    }
    switch (attempt->id()) {
      case kCodecDeltaZstd:
        attempt = codec_by_id(kCodecZstd);
        break;
      case kCodecZstd:
      case kCodecDelta:
        attempt = codec_by_id(kCodecRaw);
        break;
      default:
        throw std::runtime_error("codec '" + std::string(attempt->name()) +
                                 "' declined a chunk with no fallback");
    }
  }
  // Compression that grows the chunk is stored raw: every chunk obeys
  // encoded_bytes <= raw_bytes, which also bounds reader-side allocations.
  if (result.codec_id != kCodecRaw && result.bytes.size() >= layout.raw_bytes()) {
    result.bytes.clear();
    (void)raw_codec.encode(layout, raw, result.bytes);
    result.codec_id = kCodecRaw;
  }
  return result;
}

void decode_chunk(std::uint32_t codec_id, const ChunkLayout& layout,
                  std::span<const std::byte> encoded,
                  std::span<std::byte> raw_out) {
  const ChunkCodec* codec = codec_by_id(codec_id);
  if (codec == nullptr) {
    const std::string_view reserved = reserved_codec_name(codec_id);
    throw std::runtime_error(
        reserved.empty()
            ? "unknown codec id " + std::to_string(codec_id)
            : "codec '" + std::string(reserved) +
                  "' is not available in this build (MINICOST_WITH_ZSTD=OFF)");
  }
  codec->decode(layout, encoded, raw_out);
}

}  // namespace minicost::codec
