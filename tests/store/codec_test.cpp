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
#include <stdexcept>
#include <vector>

#include "codec/chunk_codec.hpp"
#include "codec/delta_codec.hpp"
#include "core/greedy.hpp"
#include "core/plan_driver.hpp"
#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
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
    ASSERT_TRUE(codec::unpack_blocks(packed, values.size(), back, &consumed));
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
    EXPECT_FALSE(codec::unpack_blocks({packed.data(), cut}, values.size(),
                                      back, nullptr));
  }
  // A width byte above 64 is malformed.
  auto bad = packed;
  bad[0] = std::byte{65};
  back.clear();
  EXPECT_FALSE(codec::unpack_blocks(bad, values.size(), back, nullptr));
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
    // Whole-trace, shard, and random-access paths all reproduce v1 exactly.
    expect_same_trace(v2.materialize(), v1.materialize());
    expect_same_trace(v2.materialize_shard(5, 20), v1.materialize_shard(5, 20));
    for (std::size_t t = 0; t < original.days(); ++t) {
      EXPECT_EQ(bits(v2.reads(33)[t]), bits(v1.reads(33)[t]));
      EXPECT_EQ(bits(v2.writes(33)[t]), bits(v1.writes(33)[t]));
    }
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
