// The .mct v2 contract, tested literally: chunk-encoded containers decode
// to the exact bytes v1 stores (so bills are byte-identical across every
// codec, shard size, and pool size), and every corruption — truncated
// chunks, flipped payloads, re-signed CRCs over malformed streams, unknown
// codec ids, lying size fields — is rejected with a message naming what
// failed. Plus unit coverage of the delta codec's primitives.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "codec/chunk_codec.hpp"
#include "codec/delta_codec.hpp"
#include "core/greedy.hpp"
#include "core/plan_driver.hpp"
#include "delta_oracle.hpp"
#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost::store {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::string> testable_codecs() {
  std::vector<std::string> codecs{"raw", "delta"};
  if (codec::zstd_available()) {
    codecs.emplace_back("zstd");
    codecs.emplace_back("delta+zstd");
  }
  return codecs;
}

// ---------------------------------------------------------------------------
// Delta primitives.

TEST(DeltaCodec, ZigzagRoundTripsExtremes) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{42},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()})
    EXPECT_EQ(codec::unzigzag(codec::zigzag(v)), v);
  // Small magnitudes map to small codes — the property bit-packing exploits.
  EXPECT_EQ(codec::zigzag(0), 0u);
  EXPECT_EQ(codec::zigzag(-1), 1u);
  EXPECT_EQ(codec::zigzag(1), 2u);
}

TEST(DeltaCodec, PackUnpackRoundTrips) {
  const std::vector<std::vector<std::uint64_t>> cases = {
      {},
      {0},
      {7},
      std::vector<std::uint64_t>(200, 0),  // two all-zero blocks
      {1, 2, 3, 0xffffffffffffffffull, 5},  // width-64 block
      [] {
        std::vector<std::uint64_t> v;
        for (std::uint64_t i = 0; i < 300; ++i) v.push_back(i * i * 977);
        return v;
      }(),
  };
  for (const auto& values : cases) {
    std::vector<std::byte> packed;
    codec::pack_blocks(values, packed);
    std::vector<std::uint64_t> back;
    std::size_t consumed = 0;
    ASSERT_TRUE(codec::oracle::unpack_blocks(packed, values.size(), back, &consumed));
    EXPECT_EQ(consumed, packed.size());
    EXPECT_EQ(back, values);
  }
}

TEST(DeltaCodec, UnpackRejectsTruncationAndBadWidths) {
  std::vector<std::uint64_t> values(150, 12345);
  std::vector<std::byte> packed;
  codec::pack_blocks(values, packed);
  std::vector<std::uint64_t> back;
  // Every proper prefix is a truncation error, never an overread.
  for (std::size_t cut = 0; cut < packed.size(); ++cut) {
    back.clear();
    EXPECT_FALSE(codec::oracle::unpack_blocks({packed.data(), cut},
                                              values.size(), back, nullptr));
  }
  // A width byte above 64 is malformed.
  auto bad = packed;
  bad[0] = std::byte{65};
  back.clear();
  EXPECT_FALSE(codec::oracle::unpack_blocks(bad, values.size(), back, nullptr));
}

// The one-pass decoder against the two-pass oracle: both fill buffers that
// start as garbage, so a padding byte the decoder forgot shows up.
// Returns the error type each threw ("" when it did not).
struct DecodeOutcome {
  std::vector<std::byte> raw;
  std::string error;
};

DecodeOutcome decode_with(bool one_pass, const codec::ChunkLayout& layout,
                          std::span<const std::byte> stream) {
  DecodeOutcome out{std::vector<std::byte>(layout.raw_bytes(), std::byte{0xAB}),
                    ""};
  try {
    if (one_pass) {
      codec::decode_chunk(codec::kCodecDelta, layout, stream, out.raw);
    } else {
      codec::oracle::two_pass_decode(layout, stream, out.raw);
    }
  } catch (const std::runtime_error& error) {
    out.error = std::string("runtime_error: ") + error.what();
  }
  return out;
}

void expect_decoders_agree(const codec::ChunkLayout& layout,
                           std::span<const std::byte> stream) {
  const DecodeOutcome one = decode_with(true, layout, stream);
  const DecodeOutcome two = decode_with(false, layout, stream);
  EXPECT_EQ(one.error, two.error);
  if (one.error.empty() && two.error.empty()) {
    EXPECT_EQ(one.raw, two.raw);
  }
}

/// `count` values packed block by block, block b at width widths[b %
/// widths.size()]: every value fits its block's width and the block's first
/// value sets the top bit, so pack_blocks writes exactly that width.
std::vector<std::byte> stream_of_widths(std::size_t count,
                                        const std::vector<unsigned>& widths,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    const unsigned width = widths[(i / codec::kBlockValues) % widths.size()];
    if (width == 0) continue;
    const std::uint64_t top = std::uint64_t{1} << (width - 1);
    values[i] = rng.next_u64() & (top | (top - 1));
    if (i % codec::kBlockValues == 0) values[i] |= top;
  }
  std::vector<std::byte> stream;
  codec::pack_blocks(values, stream);
  return stream;
}

// Layouts whose value counts end on a short last block (2 * 3 * 50 = 300
// values: 128 + 128 + 44), fit in one short block (2 * 1 * 7 = 14), and
// fill whole blocks exactly (2 * 2 * 64 = 256).
const std::vector<codec::ChunkLayout> kDecodeLayouts = {
    {3, 50, 448}, {1, 7, 64}, {2, 64, 512}};

TEST(DeltaDecode, OnePassMatchesTwoPassAtEveryWidth) {
  for (const codec::ChunkLayout& layout : kDecodeLayouts)
    for (unsigned width = 0; width <= 64; ++width) {
      SCOPED_TRACE("days=" + std::to_string(layout.days) +
                   " width=" + std::to_string(width));
      const std::vector<std::byte> stream = stream_of_widths(
          layout.series_count() * layout.days, {width}, 100 + width);
      expect_decoders_agree(layout, stream);
      EXPECT_TRUE(decode_with(true, layout, stream).error.empty());
    }
}

TEST(DeltaDecode, OnePassMatchesTwoPassOnMixedWidths) {
  for (const codec::ChunkLayout& layout : kDecodeLayouts)
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      util::Rng rng(seed);
      std::vector<unsigned> widths(3);
      for (unsigned& width : widths)
        width = static_cast<unsigned>(rng.next_u64() % 65);
      expect_decoders_agree(
          layout, stream_of_widths(layout.series_count() * layout.days,
                                   widths, seed));
    }
}

TEST(DeltaDecode, RoundTripsEveryIntegralSeries) {
  // Real encoder output: counts, negative deltas, the 2^62 bound.
  const codec::ChunkLayout layout{2, 9, 128};
  std::vector<std::byte> raw(layout.raw_bytes());
  const double series[4][9] = {
      {0, 0, 0, 0, 0, 0, 0, 0, 0},
      {1, 5, 2, 900000, 3, 0, 7, 7, 7},
      {4611686018427387904.0, -4611686018427387904.0, 0, -1, 1, -2, 2, 3, -3},
      {12, 11, 10, 9, 8, 7, 6, 5, 4}};
  for (std::size_t s = 0; s < 4; ++s)
    std::memcpy(raw.data() + s * layout.stride, series[s], sizeof series[s]);
  const codec::EncodedChunk encoded =
      codec::encode_chunk(codec::kCodecDelta, layout, raw);
  ASSERT_EQ(encoded.codec_id, codec::kCodecDelta);
  const DecodeOutcome back = decode_with(true, layout, encoded.bytes);
  ASSERT_EQ(back.error, "");
  EXPECT_EQ(back.raw, raw);
  expect_decoders_agree(layout, encoded.bytes);
}

TEST(DeltaDecode, RejectsWhatTheOracleRejects) {
  for (const codec::ChunkLayout& layout : kDecodeLayouts) {
    const std::vector<std::byte> stream = stream_of_widths(
        layout.series_count() * layout.days, {13, 0, 64, 57}, 7);
    // Every proper prefix is truncated, never an overread.
    for (std::size_t cut = 0; cut < stream.size(); ++cut) {
      const std::span<const std::byte> prefix(stream.data(), cut);
      EXPECT_NE(decode_with(true, layout, prefix).error, "") << cut;
      expect_decoders_agree(layout, prefix);
    }
    // Leftover bytes after the last block.
    std::vector<std::byte> longer = stream;
    longer.push_back(std::byte{0});
    EXPECT_NE(decode_with(true, layout, longer).error, "");
    expect_decoders_agree(layout, longer);
    // A width byte above 64, at the first block and at the last.
    for (const std::size_t at : {std::size_t{0}, stream.size() - 1}) {
      std::vector<std::byte> bad = stream;
      std::size_t pos = 0;
      std::size_t remaining = layout.series_count() * layout.days;
      while (true) {  // walk to the width byte of the block holding `at`
        const auto width = static_cast<unsigned>(bad[pos]);
        const std::size_t n = std::min(codec::kBlockValues, remaining);
        const std::size_t next = pos + 1 + (n * width + 7) / 8;
        if (next > at || next >= bad.size()) break;
        pos = next;
        remaining -= n;
      }
      for (const unsigned width : {65u, 128u, 255u}) {
        bad[pos] = static_cast<std::byte>(width);
        EXPECT_NE(decode_with(true, layout, bad).error, "");
        expect_decoders_agree(layout, bad);
      }
    }
  }
}

TEST(DeltaCodec, IntegralBitsAcceptsExactIntegersOnly) {
  EXPECT_EQ(codec::integral_bits(0.0).value_or(-1), 0);
  EXPECT_EQ(codec::integral_bits(1234567.0).value_or(-1), 1234567);
  EXPECT_EQ(codec::integral_bits(-42.0).value_or(1), -42);
  EXPECT_EQ(codec::integral_bits(1e15).value_or(-1), 1000000000000000LL);
  // 2^62 is the documented bound; the doubles just past it are rejected.
  EXPECT_TRUE(codec::integral_bits(4611686018427387904.0).has_value());
  EXPECT_FALSE(codec::integral_bits(9.3e18).has_value());
  EXPECT_FALSE(codec::integral_bits(-9.3e18).has_value());
  // Fractions, negative zero (sign bit would not survive), and non-finites.
  EXPECT_FALSE(codec::integral_bits(0.5).has_value());
  EXPECT_FALSE(codec::integral_bits(-0.0).has_value());
  EXPECT_FALSE(
      codec::integral_bits(std::numeric_limits<double>::quiet_NaN()).has_value());
  EXPECT_FALSE(
      codec::integral_bits(std::numeric_limits<double>::infinity()).has_value());
}

TEST(ChunkCodec, RegistryResolvesNamesAndIds) {
  ASSERT_NE(codec::codec_by_id(codec::kCodecRaw), nullptr);
  ASSERT_NE(codec::codec_by_name("delta"), nullptr);
  EXPECT_EQ(codec::codec_by_name("delta")->id(), codec::kCodecDelta);
  EXPECT_EQ(codec::codec_by_id(99), nullptr);
  EXPECT_EQ(codec::codec_by_name("lzma"), nullptr);
  EXPECT_EQ(codec::reserved_codec_name(codec::kCodecDeltaZstd), "delta+zstd");
  EXPECT_EQ(codec::reserved_codec_name(99), "");
  if (codec::zstd_available()) {
    EXPECT_NE(codec::codec_by_name("delta+zstd"), nullptr);
  } else {
    EXPECT_EQ(codec::codec_by_name("zstd"), nullptr);
  }
}

TEST(ChunkCodec, DeltaFallsBackToRawOnFractionalSeries) {
  const codec::ChunkLayout layout{1, 3, 64};
  std::vector<std::byte> raw(layout.raw_bytes());
  const double values[3] = {0.5, 1.0, 2.0};
  std::memcpy(raw.data(), values, sizeof values);
  const codec::EncodedChunk encoded =
      codec::encode_chunk(codec::kCodecDelta, layout, raw);
  EXPECT_EQ(encoded.codec_id, codec::kCodecRaw);
  EXPECT_EQ(encoded.bytes.size(), layout.raw_bytes());
}

TEST(ChunkCodec, UnknownCodecIdThrowsClearly) {
  const codec::ChunkLayout layout{1, 1, 64};
  std::vector<std::byte> raw(layout.raw_bytes());
  EXPECT_THROW(
      {
        try {
          codec::encode_chunk(99, layout, raw);
        } catch (const std::invalid_argument& error) {
          EXPECT_NE(std::string(error.what()).find("unknown codec id 99"),
                    std::string::npos);
          throw;
        }
      },
      std::invalid_argument);
  std::vector<std::byte> out(layout.raw_bytes());
  EXPECT_THROW(codec::decode_chunk(99, layout, raw, out), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Container round-trips and corruption rejection.

class CodecContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string tag = std::to_string(::getpid());
    v1_path_ = dir / ("minicost_codec_v1_" + tag + ".mct");
    v2_path_ = dir / ("minicost_codec_v2_" + tag + ".mct");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(v1_path_, ec);
    std::filesystem::remove(v2_path_, ec);
  }

  static trace::RequestTrace sample_trace(std::size_t files = 61,
                                          std::size_t days = 10) {
    trace::SyntheticConfig config;
    config.file_count = files;
    config.days = days;
    config.seed = 11;
    config.grouped_file_fraction = 0.5;
    config.integral_counts = true;  // realistic counts; lets delta engage
    return trace::generate_synthetic(config);
  }

  std::vector<char> read_all() const {
    std::ifstream in(v2_path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_all(const std::vector<char>& bytes) const {
    std::ofstream out(v2_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  void flip_byte(std::size_t offset) const {
    auto bytes = read_all();
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    write_all(bytes);
  }

  /// Rewrites the v2 metadata (ext + chunk table) and re-signs every CRC in
  /// the mutation's wake, so the change reaches the structural checks — an
  /// adversarial container, not a bit-rotted one.
  template <typename Mutate>
  void patch_v2(Mutate mutate) const {
    auto bytes = read_all();
    Header header;
    HeaderV2Ext ext;
    std::memcpy(&header, bytes.data(), sizeof header);
    std::memcpy(&ext, bytes.data() + kV2ExtOffset, sizeof ext);
    std::vector<ChunkEntry> chunks(ext.chunk_count);
    std::memcpy(chunks.data(), bytes.data() + ext.chunk_table_offset,
                ext.chunk_table_bytes);
    mutate(header, ext, chunks);
    ext.crc_chunk_table =
        crc32(chunks.data(), chunks.size() * sizeof(ChunkEntry));
    ext.crc_ext = crc32(&ext, offsetof(HeaderV2Ext, crc_ext));
    header.crc_header = crc32(&header, offsetof(Header, crc_header));
    std::memcpy(bytes.data(), &header, sizeof header);
    std::memcpy(bytes.data() + kV2ExtOffset, &ext, sizeof ext);
    std::memcpy(bytes.data() + ext.chunk_table_offset, chunks.data(),
                ext.chunk_table_bytes);
    write_all(bytes);
  }

  void expect_open_fails(const char* needle) const {
    EXPECT_THROW(
        {
          try {
            TraceReader reader(v2_path_);
          } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
            throw;
          }
        },
        std::runtime_error);
  }

  static void expect_same_trace(const trace::RequestTrace& got,
                                const trace::RequestTrace& want) {
    ASSERT_EQ(got.file_count(), want.file_count());
    ASSERT_EQ(got.days(), want.days());
    for (std::size_t i = 0; i < want.file_count(); ++i) {
      const trace::FileRecord& a = got.files()[i];
      const trace::FileRecord& b = want.files()[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(bits(a.size_gb), bits(b.size_gb));
      for (std::size_t t = 0; t < want.days(); ++t) {
        EXPECT_EQ(bits(a.reads[t]), bits(b.reads[t]));
        EXPECT_EQ(bits(a.writes[t]), bits(b.writes[t]));
      }
    }
    ASSERT_EQ(got.groups().size(), want.groups().size());
    for (std::size_t g = 0; g < want.groups().size(); ++g) {
      EXPECT_EQ(got.groups()[g].members, want.groups()[g].members);
      for (std::size_t t = 0; t < want.days(); ++t)
        EXPECT_EQ(bits(got.groups()[g].concurrent_reads[t]),
                  bits(want.groups()[g].concurrent_reads[t]));
    }
  }

  std::filesystem::path v1_path_;
  std::filesystem::path v2_path_;
};

TEST_F(CodecContainerTest, RoundTripsByteIdenticallyUnderEveryCodec) {
  const trace::RequestTrace original = sample_trace();
  pack_trace(original, v1_path_);
  const TraceReader v1(v1_path_);
  for (const std::string& name : testable_codecs()) {
    SCOPED_TRACE("codec=" + name);
    // 7 files per chunk: several full chunks plus a partial tail chunk.
    pack_trace(original, v2_path_, WriterOptions{name, 7});
    const TraceReader v2(v2_path_);
    ASSERT_TRUE(v2.is_v2());
    EXPECT_EQ(v2.v2_ext().chunk_count, (original.file_count() + 6) / 7);
    EXPECT_LE(v2.header().freq_bytes, v1.header().freq_bytes);
    EXPECT_EQ(v2.freq_raw_bytes(), v1.header().freq_bytes);
    v2.verify_checksums();
    // Whole-trace, multi-chunk and one-file shards all reproduce v1 exactly.
    expect_same_trace(v2.materialize(), v1.materialize());
    expect_same_trace(v2.materialize_shard(5, 20), v1.materialize_shard(5, 20));
    expect_same_trace(v2.materialize_shard(33, 1), v1.materialize_shard(33, 1));
  }
}

TEST_F(CodecContainerTest, BillsByteIdenticalAcrossShardSizesAndPools) {
  const trace::RequestTrace original = sample_trace();
  pack_trace(original, v1_path_);
  const TraceReader v1(v1_path_);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();

  core::GreedyPolicy reference_policy;
  core::PlanOptions mono;
  mono.start_day = 5;
  mono.initial_tiers =
      core::static_initial_tiers(original, prices, mono.start_day);
  const core::PlanResult reference =
      core::run_policy(original, prices, reference_policy, mono);

  for (const std::string& name : testable_codecs()) {
    pack_trace(original, v2_path_, WriterOptions{name, 16});
    const TraceReader v2(v2_path_);
    // Shard sizes {1, 7, all} x pools {1, 4}: the acceptance matrix.
    for (const std::size_t shard_files :
         {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("codec=" + name +
                     " shard_files=" + std::to_string(shard_files) +
                     " threads=" + std::to_string(threads));
        util::ThreadPool pool(threads);
        core::GreedyPolicy policy;
        core::PlanDriverOptions options;
        options.shard_files = shard_files;
        options.start_day = mono.start_day;
        options.pool = &pool;
        const core::PlanDriverRun sharded =
            core::PlanDriver(v2, prices, policy, options).run();
        const sim::CostBreakdown& a = sharded.report.grand_total();
        const sim::CostBreakdown& b = reference.report.grand_total();
        EXPECT_EQ(bits(a.storage), bits(b.storage));
        EXPECT_EQ(bits(a.read), bits(b.read));
        EXPECT_EQ(bits(a.write), bits(b.write));
        EXPECT_EQ(bits(a.change), bits(b.change));
        EXPECT_EQ(sharded.report.tier_changes(),
                  reference.report.tier_changes());
        for (std::size_t f = 0; f < original.file_count(); ++f)
          EXPECT_EQ(bits(sharded.report.file_total(f)),
                    bits(reference.report.file_total(f)));
      }
    }
  }
}

// materialize_shard on a pool decodes (v2) or copies (v1) in blocks of
// chunks or files; every pool size must give the serial bytes, for ranges
// that start or end inside a chunk, ranges of fewer chunks than threads,
// and empty ranges.
TEST_F(CodecContainerTest, MaterializeShardIsPoolSizeIndependent) {
  const trace::RequestTrace original = sample_trace();  // 61 files
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  for (const std::size_t threads : {1, 2, 3, 4, 8})
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 61}, {5, 20}, {7, 14}, {33, 1}, {3, 9},
      {60, 1}, {0, 0}, {30, 0}, {61, 0}};
  const std::vector<std::string> containers = {"v1", "raw", "delta"};
  for (const std::string& container : containers) {
    const std::filesystem::path& path = container == "v1" ? v1_path_ : v2_path_;
    if (container == "v1") {
      pack_trace(original, path);
    } else {
      // 7 files per chunk: 9 chunks, the last one short.
      pack_trace(original, path, WriterOptions{container, 7});
    }
    const TraceReader reader(path);
    for (const auto& [first, count] : ranges) {
      const trace::RequestTrace serial = reader.materialize_shard(first, count);
      ASSERT_EQ(serial.file_count(), count);
      for (const auto& pool : pools) {
        SCOPED_TRACE(container + " range " + std::to_string(first) + "+" +
                     std::to_string(count) +
                     " threads=" + std::to_string(pool->size()));
        expect_same_trace(reader.materialize_shard(first, count, pool.get()),
                          serial);
      }
    }
  }
}

// With several corrupt chunks, every pool size reports the first one in
// file order, as a serial read does.
TEST_F(CodecContainerTest, PooledMaterializeReportsTheFirstBadChunk) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 7});
  std::vector<ChunkEntry> chunks;
  {
    const TraceReader reader(v2_path_);
    chunks.assign(reader.chunk_table().begin(), reader.chunk_table().end());
  }
  flip_byte(kHeaderBytes + chunks[6].offset);
  flip_byte(kHeaderBytes + chunks[2].offset);
  const TraceReader reader(v2_path_);
  const auto error_of = [&](util::ThreadPool* pool) {
    try {
      (void)reader.materialize_shard(0, reader.file_count(), pool);
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string serial = error_of(nullptr);
  EXPECT_NE(serial.find("chunk 2 checksum mismatch"), std::string::npos)
      << serial;
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    util::ThreadPool pool(threads);
    EXPECT_EQ(error_of(&pool), serial) << threads << " threads";
  }
}

TEST_F(CodecContainerTest, MixedChunksFallBackIndividually) {
  // Files 0..6 integral, 7..13 fractional: with 7 files per chunk, delta
  // keeps the first chunk and falls back to raw for the second.
  std::vector<trace::FileRecord> files;
  for (std::size_t i = 0; i < 14; ++i) {
    trace::FileRecord f;
    f.name = "f" + std::to_string(i);
    f.size_gb = 1.0;
    for (std::size_t t = 0; t < 3; ++t) {
      f.reads.push_back(i < 7 ? double(i * 10 + t) : double(i) + 0.25);
      f.writes.push_back(0.0);
    }
    files.push_back(std::move(f));
  }
  const trace::RequestTrace original(3, std::move(files), {});
  pack_trace(original, v2_path_, WriterOptions{"delta", 7});
  const TraceReader reader(v2_path_);
  ASSERT_EQ(reader.chunk_table().size(), 2u);
  EXPECT_EQ(reader.chunk_table()[0].codec_id, codec::kCodecDelta);
  EXPECT_EQ(reader.chunk_table()[1].codec_id, codec::kCodecRaw);
  expect_same_trace(reader.materialize(), original);
}

TEST_F(CodecContainerTest, EdgeContainersRoundTrip) {
  for (const std::string& name : testable_codecs()) {
    SCOPED_TRACE("codec=" + name);
    {  // empty container
      TraceWriter writer(v2_path_, 5, WriterOptions{name, 8});
      writer.finish();
      const TraceReader reader(v2_path_);
      EXPECT_TRUE(reader.is_v2());
      EXPECT_EQ(reader.file_count(), 0u);
      EXPECT_EQ(reader.v2_ext().chunk_count, 0u);
      reader.verify_checksums();
      EXPECT_EQ(reader.materialize().file_count(), 0u);
    }
    {  // one file, one day
      const trace::RequestTrace one(
          1, {trace::FileRecord{"solo", 2.5, {3.0}, {1.0}}}, {});
      pack_trace(one, v2_path_, WriterOptions{name, 8});
      const TraceReader reader(v2_path_);
      EXPECT_EQ(reader.v2_ext().chunk_count, 1u);
      expect_same_trace(reader.materialize(), one);
      reader.verify_checksums();
    }
  }
}

TEST_F(CodecContainerTest, UnavailableOrUnknownWriterCodecThrows) {
  EXPECT_THROW(TraceWriter(v2_path_, 5, WriterOptions{"lzma", 8}),
               std::invalid_argument);
  EXPECT_THROW(TraceWriter(v2_path_, 5, WriterOptions{"delta", 0}),
               std::invalid_argument);
  if (!codec::zstd_available()) {
    EXPECT_THROW(TraceWriter(v2_path_, 5, WriterOptions{"zstd", 8}),
                 std::invalid_argument);
  }
}

TEST_F(CodecContainerTest, TruncatedContainerRejected) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  auto bytes = read_all();
  bytes.resize(bytes.size() - 7);
  write_all(bytes);
  expect_open_fails("size mismatch");
}

TEST_F(CodecContainerTest, FlippedChunkPayloadFailsCrcOnDecode) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  flip_byte(kHeaderBytes + 3);  // inside chunk 0's encoded bytes
  const TraceReader reader(v2_path_);  // open stays lazy about freq data
  EXPECT_THROW(
      {
        try {
          reader.materialize_shard(0, 1);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("checksum mismatch"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);
  EXPECT_THROW(reader.verify_checksums(), std::runtime_error);
  // Untouched chunks still decode.
  EXPECT_EQ(reader.materialize_shard(32, 8).file_count(), 8u);
}

TEST_F(CodecContainerTest, ResignedCrcOverMalformedStreamStillRejected) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  // Corrupt the first delta stream's width byte to an impossible value,
  // then re-sign every checksum on the path — CRCs prove integrity, the
  // decoder must still prove honesty.
  auto bytes = read_all();
  bytes[kHeaderBytes] = static_cast<char>(0x7f);  // width 127 > 64
  write_all(bytes);
  patch_v2([&](Header& header, HeaderV2Ext& ext,
               std::vector<ChunkEntry>& chunks) {
    auto fresh = read_all();
    chunks[0].crc = crc32(fresh.data() + kHeaderBytes + chunks[0].offset,
                          chunks[0].encoded_bytes);
    header.crc_freq = crc32(fresh.data() + kHeaderBytes, header.freq_bytes);
    (void)ext;
  });
  const TraceReader reader(v2_path_);
  EXPECT_THROW(
      {
        try {
          reader.materialize_shard(0, 1);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("malformed delta stream"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);
  EXPECT_THROW(reader.verify_checksums(), std::runtime_error);
}

TEST_F(CodecContainerTest, UnknownChunkCodecIdRejectedAtOpen) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  patch_v2([](Header&, HeaderV2Ext&, std::vector<ChunkEntry>& chunks) {
    chunks[1].codec_id = 99;
  });
  expect_open_fails("unknown codec id 99");
}

TEST_F(CodecContainerTest, UnknownHeaderCodecIdRejectedAtOpen) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  patch_v2([](Header&, HeaderV2Ext& ext, std::vector<ChunkEntry>&) {
    ext.codec_id = 77;
  });
  expect_open_fails("unknown codec id 77");
}

TEST_F(CodecContainerTest, LyingChunkGeometryRejectedAtOpen) {
  const auto repack = [&] {
    pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  };
  repack();
  patch_v2([](Header&, HeaderV2Ext&, std::vector<ChunkEntry>& chunks) {
    chunks[1].offset += 8;  // gap/overlap in the chunk run
  });
  expect_open_fails("not contiguous");

  repack();
  patch_v2([](Header&, HeaderV2Ext&, std::vector<ChunkEntry>& chunks) {
    chunks[0].raw_bytes += 64;  // oversized uncompressed-size field
  });
  expect_open_fails("wrong decoded size");

  repack();
  patch_v2([](Header&, HeaderV2Ext&, std::vector<ChunkEntry>& chunks) {
    chunks[0].encoded_bytes = chunks[0].raw_bytes + 1;
  });
  expect_open_fails("implausible encoded size");

  repack();
  patch_v2([](Header&, HeaderV2Ext&, std::vector<ChunkEntry>& chunks) {
    // Offset that wraps u64 arithmetic must fail the contiguity check, not
    // slip a pointer past the mapping.
    chunks[0].offset = std::numeric_limits<std::uint64_t>::max() - 4;
  });
  expect_open_fails("not contiguous");

  repack();
  patch_v2([](Header&, HeaderV2Ext& ext, std::vector<ChunkEntry>&) {
    ext.files_per_chunk = kMaxFilesPerChunk + 1;
  });
  expect_open_fails("implausible files_per_chunk");
}

TEST_F(CodecContainerTest, FlippedChunkTableOrExtRejectedAtOpen) {
  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  TraceReader probe(v2_path_);
  const std::uint64_t table_offset = probe.v2_ext().chunk_table_offset;
  flip_byte(static_cast<std::size_t>(table_offset) + 5);
  expect_open_fails("chunk table checksum mismatch");

  pack_trace(sample_trace(), v2_path_, WriterOptions{"delta", 16});
  flip_byte(kV2ExtOffset + 2);
  expect_open_fails("extension checksum mismatch");
}

TEST_F(CodecContainerTest, V1ContainersStillReadUnchanged) {
  const trace::RequestTrace original = sample_trace();
  pack_trace(original, v1_path_);
  const TraceReader reader(v1_path_);
  EXPECT_FALSE(reader.is_v2());
  EXPECT_TRUE(reader.chunk_table().empty());
  EXPECT_EQ(reader.freq_raw_bytes(), reader.header().freq_bytes);
  expect_same_trace(reader.materialize(), original);
  reader.verify_checksums();
}

}  // namespace
}  // namespace minicost::store
