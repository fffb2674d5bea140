#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <filesystem>
#include <fstream>
#include <vector>

#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"

namespace minicost::store {
namespace {

trace::RequestTrace sample_trace(std::size_t files = 40, std::size_t days = 9) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = days;
  config.seed = 7;
  config.grouped_file_fraction = 0.5;
  return trace::generate_synthetic(config);
}

class StoreFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("minicost_store_" + std::to_string(::getpid()) + ".mct");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::vector<char> read_all() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_all(const std::vector<char>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  /// XORs one byte of the container on disk.
  void flip_byte(std::size_t offset) const {
    auto bytes = read_all();
    ASSERT_LT(offset, bytes.size());
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5a);
    write_all(bytes);
  }

  /// Rewrites header fields and re-signs the header CRC, so the mutation
  /// reaches the structural checks instead of dying at the checksum. This is
  /// how an adversarial (rather than bit-rotted) container looks.
  template <typename Mutate>
  void patch_header(Mutate mutate) const {
    auto bytes = read_all();
    Header header;
    std::memcpy(&header, bytes.data(), sizeof header);
    mutate(header);
    header.crc_header = crc32(&header, offsetof(Header, crc_header));
    std::memcpy(bytes.data(), &header, sizeof header);
    write_all(bytes);
  }

  void expect_open_fails(const char* needle) const {
    EXPECT_THROW(
        {
          try {
            TraceReader reader(path_);
          } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find(needle),
                      std::string::npos)
                << error.what();
            throw;
          }
        },
        std::runtime_error);
  }

  std::filesystem::path path_;
};

TEST_F(StoreFormatTest, RoundTripsEverySeriesBitExactly) {
  const trace::RequestTrace original = sample_trace();
  pack_trace(original, path_);

  const TraceReader reader(path_);
  EXPECT_EQ(reader.days(), original.days());
  EXPECT_EQ(reader.file_count(), original.file_count());
  EXPECT_EQ(reader.group_count(), original.groups().size());

  const trace::RequestTrace copy = reader.materialize();
  for (std::size_t i = 0; i < original.file_count(); ++i) {
    const trace::FileRecord& f = original.files()[i];
    const trace::FileRecord& got = copy.files()[i];
    EXPECT_EQ(reader.name(i), f.name);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.size_gb(i)),
              std::bit_cast<std::uint64_t>(f.size_gb));
    ASSERT_EQ(got.reads.size(), original.days());
    ASSERT_EQ(got.writes.size(), original.days());
    for (std::size_t t = 0; t < original.days(); ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.reads[t]),
                std::bit_cast<std::uint64_t>(f.reads[t]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.writes[t]),
                std::bit_cast<std::uint64_t>(f.writes[t]));
    }
  }
  for (std::size_t g = 0; g < original.groups().size(); ++g) {
    const trace::CoRequestGroup& expect = original.groups()[g];
    const TraceReader::GroupView view = reader.group(g);
    ASSERT_EQ(view.members.size(), expect.members.size());
    for (std::size_t m = 0; m < expect.members.size(); ++m)
      EXPECT_EQ(view.members[m], expect.members[m]);
    for (std::size_t t = 0; t < original.days(); ++t)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(view.concurrent_reads[t]),
                std::bit_cast<std::uint64_t>(expect.concurrent_reads[t]));
  }
  reader.verify_checksums();  // and the full scan agrees
}

TEST_F(StoreFormatTest, MaterializeEqualsOriginal) {
  const trace::RequestTrace original = sample_trace();
  pack_trace(original, path_);
  const trace::RequestTrace copy = TraceReader(path_).materialize();
  EXPECT_EQ(copy.days(), original.days());
  ASSERT_EQ(copy.file_count(), original.file_count());
  for (std::size_t i = 0; i < original.file_count(); ++i) {
    EXPECT_EQ(copy.files()[i].name, original.files()[i].name);
    EXPECT_EQ(copy.files()[i].reads, original.files()[i].reads);
    EXPECT_EQ(copy.files()[i].writes, original.files()[i].writes);
  }
  ASSERT_EQ(copy.groups().size(), original.groups().size());
  for (std::size_t g = 0; g < original.groups().size(); ++g)
    EXPECT_EQ(copy.groups()[g].members, original.groups()[g].members);
}

TEST_F(StoreFormatTest, SeriesAreSixtyFourByteAligned) {
  pack_trace(sample_trace(5, 9), path_);  // 9 days -> 72 B padded to 128 B
  const TraceReader reader(path_);
  // Every series starts at freq_offset + k * series_stride in the file.
  EXPECT_EQ(reader.header().freq_offset % kSeriesAlign, 0u);
  EXPECT_EQ(reader.header().series_stride, 128u);
}

TEST_F(StoreFormatTest, MaterializeShardRemapsAndDropsStraddlingGroups) {
  const trace::RequestTrace original = sample_trace(30, 6);
  pack_trace(original, path_);
  const TraceReader reader(path_);

  const std::size_t first = 10, count = 12;
  const trace::RequestTrace shard = reader.materialize_shard(first, count);
  ASSERT_EQ(shard.file_count(), count);
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(shard.files()[i].reads, original.files()[first + i].reads);

  // Exactly the groups fully inside [first, first + count), remapped.
  std::size_t inside = 0;
  for (const trace::CoRequestGroup& g : original.groups()) {
    bool all = true;
    for (trace::FileId m : g.members)
      all = all && m >= first && m < first + count;
    if (!all) continue;
    ASSERT_LT(inside, shard.groups().size());
    const trace::CoRequestGroup& got = shard.groups()[inside++];
    ASSERT_EQ(got.members.size(), g.members.size());
    for (std::size_t m = 0; m < g.members.size(); ++m)
      EXPECT_EQ(got.members[m], g.members[m] - first);
  }
  EXPECT_EQ(shard.groups().size(), inside);

  EXPECT_THROW(reader.materialize_shard(25, 10), std::out_of_range);
}

TEST_F(StoreFormatTest, ReleaseFrequencyRangeKeepsDataReadable) {
  const trace::RequestTrace original = sample_trace(20, 8);
  pack_trace(original, path_);
  const TraceReader reader(path_);
  reader.release_frequency_range(0, reader.file_count());
  const trace::RequestTrace copy = reader.materialize();
  for (std::size_t i = 0; i < reader.file_count(); ++i) {
    EXPECT_EQ(copy.files()[i].reads, original.files()[i].reads);
    EXPECT_EQ(copy.files()[i].writes, original.files()[i].writes);
  }
  EXPECT_THROW(reader.release_frequency_range(15, 10), std::out_of_range);
}

TEST_F(StoreFormatTest, RejectsTruncatedFile) {
  pack_trace(sample_trace(), path_);
  auto bytes = read_all();
  bytes.resize(bytes.size() - 100);
  write_all(bytes);
  EXPECT_THROW(
      {
        try {
          TraceReader reader(path_);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("truncated"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);

  // Smaller than even the fixed header.
  bytes.resize(64);
  write_all(bytes);
  EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(StoreFormatTest, RejectsTrailingGarbage) {
  pack_trace(sample_trace(), path_);
  auto bytes = read_all();
  bytes.push_back('x');
  write_all(bytes);
  EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(StoreFormatTest, RejectsForeignMagic) {
  pack_trace(sample_trace(), path_);
  flip_byte(0);
  EXPECT_THROW(
      {
        try {
          TraceReader reader(path_);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("magic"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(StoreFormatTest, RejectsFutureVersionWithClearMessage) {
  pack_trace(sample_trace(), path_);
  auto bytes = read_all();
  const std::uint32_t future = 7;
  std::memcpy(bytes.data() + offsetof(Header, version), &future,
              sizeof future);
  write_all(bytes);
  EXPECT_THROW(
      {
        try {
          TraceReader reader(path_);
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("version 7"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(StoreFormatTest, HeaderCrcCatchesBitFlip) {
  pack_trace(sample_trace(), path_);
  // Flip a byte of the file_count field: magic/version still parse, so only
  // the header checksum can catch it.
  flip_byte(offsetof(Header, file_count));
  EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(StoreFormatTest, MetadataCrcCatchesBitFlipOnOpen) {
  pack_trace(sample_trace(), path_);
  const Header header = [&] {
    const TraceReader reader(path_);
    return reader.header();
  }();
  flip_byte(static_cast<std::size_t>(header.file_table_offset) + 8);
  EXPECT_THROW(TraceReader reader(path_), std::runtime_error);
}

TEST_F(StoreFormatTest, FrequencyCrcCatchesBitFlipOnVerify) {
  pack_trace(sample_trace(), path_);
  const Header header = [&] {
    const TraceReader reader(path_);
    return reader.header();
  }();
  flip_byte(static_cast<std::size_t>(header.freq_offset) + 3);

  // Opening skips the bulk section by design; the full scan catches it.
  const TraceReader reader(path_);
  EXPECT_THROW(
      {
        try {
          reader.verify_checksums();
        } catch (const std::runtime_error& error) {
          EXPECT_NE(std::string(error.what()).find("frequency"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(StoreFormatTest, WriterValidatesInputs) {
  EXPECT_THROW(TraceWriter(path_, 0), std::runtime_error);
  TraceWriter writer(path_, 4);
  const std::vector<double> series(4, 1.0);
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(writer.add_file("f", 0.1, wrong, wrong),
               std::invalid_argument);
  writer.add_file("f", 0.1, series, series);
  const std::vector<trace::FileId> bad_members{0, 9};
  writer.add_group(bad_members, series);
  EXPECT_THROW(writer.finish(), std::runtime_error);  // member 9 never added
}

// --- Adversarial section layouts -----------------------------------------
// Each test re-signs the header CRC after the mutation: a matching checksum
// proves integrity, not honesty, so the structural checks must hold on their
// own. Every case must be a clean runtime_error — never a wild read or an
// allocation attempt (the fuzz harness replays the same shapes under ASan).

TEST_F(StoreFormatTest, RejectsNameSectionWrappingThePointerSpace) {
  pack_trace(sample_trace(), path_);
  // names_offset + names_bytes == 2^64 wraps an additive bounds check to 0;
  // the groups section is then re-aimed at the whole file so the layout
  // equalities still chain. Pre-guard, the CRC pass would read ~2^64 bytes.
  patch_header([](Header& h) {
    h.names_bytes = ~h.names_offset + 1;  // two's complement: sums to 2^64
    h.groups_offset = 0;
    h.groups_bytes = h.total_bytes;
  });
  expect_open_fails("section extends past the end of the file");
}

TEST_F(StoreFormatTest, RejectsFileTablePastEndOfFile) {
  pack_trace(sample_trace(), path_);
  patch_header([](Header& h) { h.file_table_offset = h.total_bytes + 4096; });
  expect_open_fails("section extends past the end of the file");
}

TEST_F(StoreFormatTest, RejectsOverlappingSections) {
  pack_trace(sample_trace(), path_);
  // Slide the file table back on top of the frequency section. All sections
  // stay inside the file, so only the layout equalities can object.
  patch_header([](Header& h) { h.file_table_offset = h.freq_offset; });
  expect_open_fails("inconsistent section layout");
}

TEST_F(StoreFormatTest, RejectsZeroFilesWithNonzeroSections) {
  pack_trace(sample_trace(), path_);
  // file_count = 0 but the frequency/table sections keep their old extents.
  patch_header([](Header& h) { h.file_count = 0; });
  expect_open_fails("inconsistent section layout");
}

TEST_F(StoreFormatTest, RejectsGroupCountBeyondSectionCapacity) {
  pack_trace(sample_trace(), path_);
  // A count this large must fail the capacity check, not reach reserve().
  patch_header([](Header& h) { h.group_count = 1ULL << 60; });
  expect_open_fails("group count exceeds");
}

TEST_F(StoreFormatTest, RejectsFileEntryNameSliceWrap) {
  pack_trace(sample_trace(), path_);
  const Header header = [&] {
    const TraceReader reader(path_);
    return reader.header();
  }();
  // Entry 0: name_offset near 2^64 so offset + bytes wraps back into range.
  auto bytes = read_all();
  FileEntry entry;
  std::memcpy(&entry, bytes.data() + header.file_table_offset, sizeof entry);
  entry.name_offset = ~std::uint64_t{0} - 1;
  entry.name_bytes = 8;
  std::memcpy(bytes.data() + header.file_table_offset, &entry, sizeof entry);
  const std::uint32_t crc =
      crc32(bytes.data() + header.file_table_offset, header.file_table_bytes);
  std::memcpy(bytes.data() + offsetof(Header, crc_file_table), &crc,
              sizeof crc);
  Header patched;
  std::memcpy(&patched, bytes.data(), sizeof patched);
  patched.crc_header = crc32(&patched, offsetof(Header, crc_header));
  std::memcpy(bytes.data(), &patched, sizeof patched);
  write_all(bytes);
  expect_open_fails("malformed");
}

TEST_F(StoreFormatTest, ShardRangeChecksDoNotWrap) {
  pack_trace(sample_trace(20, 6), path_);
  const TraceReader reader(path_);
  const auto max = std::numeric_limits<std::size_t>::max();
  // first + count wraps to a small value; the check must still reject.
  EXPECT_THROW(reader.materialize_shard(1, max), std::out_of_range);
  EXPECT_THROW(reader.materialize_shard(max, 2), std::out_of_range);
  EXPECT_THROW(reader.release_frequency_range(1, max), std::out_of_range);
}

TEST_F(StoreFormatTest, MissingFileThrows) {
  EXPECT_THROW(TraceReader reader("/nonexistent/trace.mct"),
               std::runtime_error);
}

}  // namespace
}  // namespace minicost::store
