#include "store/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "codec/chunk_codec.hpp"
#include "obs/metrics.hpp"
#include "store/crc32.hpp"

namespace minicost::store {
namespace {

[[noreturn]] void fail(const std::filesystem::path& path,
                       const std::string& what) {
  throw std::runtime_error(path.string() + ": " + what);
}

/// Upper bound on the horizon a v1 container may declare. Generous (two
/// million years of days) but finite, so series_stride arithmetic on a
/// corrupt header cannot overflow before the consistency checks run.
constexpr std::uint64_t kMaxDays = 1ULL << 30;

}  // namespace

TraceReader::TraceReader(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    fail(path, "truncated: smaller than the fixed header (" +
                   std::to_string(size) + " bytes)");
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (mapping == MAP_FAILED) fail(path, "mmap failed");
  base_ = static_cast<const std::byte*>(mapping);
  mapped_bytes_ = size;
  try {
    validate(path);
  } catch (...) {
    ::munmap(mapping, size);
    base_ = nullptr;
    mapped_bytes_ = 0;
    throw;
  }
  MC_OBS_COUNT("store.reader.bytes_mapped", size);
}

void TraceReader::validate(const std::filesystem::path& path) {
  std::memcpy(&header_, base_, sizeof header_);
  if (std::memcmp(header_.magic, kMagic, sizeof kMagic) != 0)
    fail(path, "not a .mct trace (bad magic)");
  if (header_.endian_tag != kEndianTag)
    fail(path, "endianness mismatch (file written on a foreign-endian host)");
  if (header_.version != kFormatVersion && header_.version != kFormatVersionV2)
    fail(path, "unsupported format version " +
                   std::to_string(header_.version) + " (this build reads " +
                   std::to_string(kFormatVersion) + " and " +
                   std::to_string(kFormatVersionV2) + ")");
  if (crc32(&header_, offsetof(Header, crc_header)) != header_.crc_header)
    fail(path, "header checksum mismatch (corrupt header)");
  if (header_.days == 0 || header_.days > kMaxDays)
    fail(path, "implausible day count " + std::to_string(header_.days));
  if (header_.total_bytes != mapped_bytes_)
    fail(path, "size mismatch: header says " +
                   std::to_string(header_.total_bytes) + " bytes, file has " +
                   std::to_string(mapped_bytes_) +
                   " (truncated or trailing garbage)");

  // Every section must lie inside the mapping before anything dereferences
  // an offset. Overflow-safe form: `offset + bytes <= mapped` would wrap for
  // a crafted header (e.g. names_bytes == 2^64 - names_offset slips a
  // zero-length "section" past an additive check, then the CRC pass reads
  // ~2^64 bytes). A valid header CRC proves integrity, not honesty.
  const auto section_in_file = [&](std::uint64_t offset,
                                   std::uint64_t bytes) noexcept {
    return offset <= mapped_bytes_ && bytes <= mapped_bytes_ - offset;
  };
  if (!section_in_file(header_.freq_offset, header_.freq_bytes) ||
      !section_in_file(header_.file_table_offset, header_.file_table_bytes) ||
      !section_in_file(header_.names_offset, header_.names_bytes) ||
      !section_in_file(header_.groups_offset, header_.groups_bytes))
    fail(path, "section extends past the end of the file");

  const std::uint64_t stride = series_stride_bytes(header_.days);
  if (header_.series_stride != stride)
    fail(path, "series stride " + std::to_string(header_.series_stride) +
                   " does not match the day count");
  if (header_.freq_offset != kHeaderBytes)
    fail(path, "inconsistent section layout in header");

  // The metadata sections start where the frequency section ends — directly
  // in v1, after the chunk table in v2. validate_v2 bounds file_count via
  // freq_raw_bytes (<= 2^57, so the file-table arithmetic below can't
  // overflow); v1 bounds it by the physical frequency bytes.
  std::uint64_t metadata_offset = header_.freq_offset + header_.freq_bytes;
  if (header_.version == kFormatVersionV2) {
    validate_v2(path);
    metadata_offset = ext_.chunk_table_offset + ext_.chunk_table_bytes;
  } else {
    if (header_.file_count > (mapped_bytes_ - kHeaderBytes) / (2 * stride))
      fail(path, "file count exceeds what the container could hold");
    if (header_.freq_bytes != header_.file_count * 2 * stride)
      fail(path, "inconsistent section layout in header");
  }
  if (header_.file_table_offset != metadata_offset ||
      header_.file_table_bytes != header_.file_count * sizeof(FileEntry) ||
      header_.names_offset !=
          header_.file_table_offset + header_.file_table_bytes ||
      header_.groups_offset !=
          round_up(header_.names_offset + header_.names_bytes, kGroupAlign) ||
      header_.total_bytes != header_.groups_offset + header_.groups_bytes)
    fail(path, "inconsistent section layout in header");

  // Metadata sections: checksum, then structure. The frequency section's
  // CRC is checked only by verify_checksums() — see the file comment.
  if (crc32(at(header_.file_table_offset), header_.file_table_bytes) !=
      header_.crc_file_table)
    fail(path, "file table checksum mismatch");
  if (crc32(at(header_.names_offset), header_.names_bytes) !=
      header_.crc_names)
    fail(path, "name blob checksum mismatch");
  if (crc32(at(header_.groups_offset), header_.groups_bytes) !=
      header_.crc_groups)
    fail(path, "group section checksum mismatch");

  file_table_ = reinterpret_cast<const FileEntry*>(at(header_.file_table_offset));
  for (std::uint64_t i = 0; i < header_.file_count; ++i) {
    const FileEntry& e = file_table_[i];
    // name_offset near 2^64 must not wrap the slice check into range.
    if (e.name_bytes > header_.names_bytes ||
        e.name_offset > header_.names_bytes - e.name_bytes || e.reserved != 0)
      fail(path, "file table entry " + std::to_string(i) + " is malformed");
  }

  // Bound the count before reserve(): a crafted group_count of 2^60 must be
  // a parse error, not an allocation attempt. Every record carries at least
  // its count + reserved words.
  if (header_.group_count > header_.groups_bytes / (2 * sizeof(std::uint32_t)))
    fail(path, "group count exceeds what the group section could hold");
  group_offsets_.reserve(header_.group_count);
  std::uint64_t pos = 0;
  for (std::uint64_t g = 0; g < header_.group_count; ++g) {
    group_offsets_.push_back(pos);
    if (pos + 2 * sizeof(std::uint32_t) > header_.groups_bytes)
      fail(path, "group section truncated at group " + std::to_string(g));
    std::uint32_t count = 0;
    std::memcpy(&count, at(header_.groups_offset + pos), sizeof count);
    if (count < 2)
      fail(path, "group " + std::to_string(g) + " has fewer than 2 members");
    pos += 2 * sizeof(std::uint32_t);
    if (pos + count * sizeof(trace::FileId) > header_.groups_bytes)
      fail(path, "group section truncated at group " + std::to_string(g));
    const auto* members =
        reinterpret_cast<const trace::FileId*>(at(header_.groups_offset + pos));
    for (std::uint32_t m = 0; m < count; ++m)
      if (members[m] >= header_.file_count)
        fail(path, "group " + std::to_string(g) + " references file id " +
                       std::to_string(members[m]) + " beyond the file count");
    pos = round_up(pos + count * sizeof(trace::FileId), kGroupAlign);
    if (pos + header_.days * sizeof(double) > header_.groups_bytes)
      fail(path, "group section truncated at group " + std::to_string(g));
    pos += header_.days * sizeof(double);
  }
  if (pos != header_.groups_bytes)
    fail(path, "group section has " +
                   std::to_string(header_.groups_bytes - pos) +
                   " trailing bytes");
}

void TraceReader::validate_v2(const std::filesystem::path& path) {
  std::memcpy(&ext_, base_ + kV2ExtOffset, sizeof ext_);
  if (crc32(&ext_, offsetof(HeaderV2Ext, crc_ext)) != ext_.crc_ext)
    fail(path, "v2 header extension checksum mismatch");
  if (codec::reserved_codec_name(ext_.codec_id).empty())
    fail(path, "unknown codec id " + std::to_string(ext_.codec_id) +
                   " in the header");
  if (ext_.files_per_chunk == 0 || ext_.files_per_chunk > kMaxFilesPerChunk)
    fail(path, "implausible files_per_chunk " +
                   std::to_string(ext_.files_per_chunk));
  // Divide instead of multiplying: freq_raw_bytes and file_count are both
  // attacker-controlled, and file_count * 2 * stride could wrap. A passing
  // check bounds file_count by 2^57 (stride >= 64), making the later
  // arithmetic on it overflow-free.
  const std::uint64_t per_file = 2 * header_.series_stride;
  if (ext_.freq_raw_bytes % per_file != 0 ||
      ext_.freq_raw_bytes / per_file != header_.file_count)
    fail(path, "decoded frequency size does not match the file count");
  const std::uint64_t expected_chunks =
      header_.file_count == 0
          ? 0
          : (header_.file_count + ext_.files_per_chunk - 1) /
                ext_.files_per_chunk;
  if (ext_.chunk_count != expected_chunks)
    fail(path, "chunk count does not match the file count");
  if (ext_.chunk_table_offset !=
          round_up(header_.freq_offset + header_.freq_bytes, kGroupAlign) ||
      ext_.chunk_table_bytes != ext_.chunk_count * sizeof(ChunkEntry))
    fail(path, "inconsistent chunk table layout in header");
  if (ext_.chunk_table_offset > mapped_bytes_ ||
      ext_.chunk_table_bytes > mapped_bytes_ - ext_.chunk_table_offset)
    fail(path, "chunk table extends past the end of the file");
  if (crc32(at(ext_.chunk_table_offset), ext_.chunk_table_bytes) !=
      ext_.crc_chunk_table)
    fail(path, "chunk table checksum mismatch");

  chunk_table_ =
      reinterpret_cast<const ChunkEntry*>(at(ext_.chunk_table_offset));
  std::uint64_t pos = 0;  // invariant: pos <= freq_bytes
  for (std::uint64_t c = 0; c < ext_.chunk_count; ++c) {
    const ChunkEntry& e = chunk_table_[c];
    const std::uint64_t files =
        std::min<std::uint64_t>(ext_.files_per_chunk,
                                header_.file_count - c * ext_.files_per_chunk);
    if (e.offset != pos)
      fail(path, "chunk " + std::to_string(c) +
                     " is not contiguous with its predecessor");
    if (e.raw_bytes != files * per_file)
      fail(path,
           "chunk " + std::to_string(c) + " declares the wrong decoded size");
    // encode_chunk guarantees encoded <= raw (growth falls back to raw);
    // enforcing it here bounds every decode-side buffer by the raw size.
    if (e.encoded_bytes == 0 || e.encoded_bytes > e.raw_bytes)
      fail(path, "chunk " + std::to_string(c) +
                     " has an implausible encoded size");
    if (e.encoded_bytes > header_.freq_bytes - pos)  // wrap-safe
      fail(path, "chunk " + std::to_string(c) +
                     " extends past the frequency section");
    if (codec::codec_by_id(e.codec_id) == nullptr) {
      const std::string_view reserved = codec::reserved_codec_name(e.codec_id);
      fail(path,
           reserved.empty()
               ? "unknown codec id " + std::to_string(e.codec_id) +
                     " in chunk " + std::to_string(c)
               : "codec '" + std::string(reserved) +
                     "' is not available in this build (MINICOST_WITH_ZSTD=OFF)");
    }
    pos += e.encoded_bytes;
  }
  if (pos != header_.freq_bytes)
    fail(path, "frequency section has " +
                   std::to_string(header_.freq_bytes - pos) +
                   " trailing bytes");
}

TraceReader::~TraceReader() {
  if (base_ != nullptr)
    ::munmap(const_cast<std::byte*>(base_), mapped_bytes_);
}

TraceReader::TraceReader(TraceReader&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      header_(other.header_),
      ext_(other.ext_),
      file_table_(std::exchange(other.file_table_, nullptr)),
      chunk_table_(std::exchange(other.chunk_table_, nullptr)),
      group_offsets_(std::move(other.group_offsets_)),
      decoded_freq_(std::move(other.decoded_freq_)),
      decoded_base_(std::exchange(other.decoded_base_, nullptr)) {}

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr)
      ::munmap(const_cast<std::byte*>(base_), mapped_bytes_);
    base_ = std::exchange(other.base_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    header_ = other.header_;
    ext_ = other.ext_;
    file_table_ = std::exchange(other.file_table_, nullptr);
    chunk_table_ = std::exchange(other.chunk_table_, nullptr);
    group_offsets_ = std::move(other.group_offsets_);
    decoded_freq_ = std::move(other.decoded_freq_);
    decoded_base_ = std::exchange(other.decoded_base_, nullptr);
  }
  return *this;
}

std::string_view TraceReader::name(std::size_t file) const {
  if (file >= header_.file_count)
    throw std::out_of_range("TraceReader::name: file index out of range");
  const FileEntry& e = file_table_[file];
  return {reinterpret_cast<const char*>(at(header_.names_offset + e.name_offset)),
          e.name_bytes};
}

double TraceReader::size_gb(std::size_t file) const {
  if (file >= header_.file_count)
    throw std::out_of_range("TraceReader::size_gb: file index out of range");
  return file_table_[file].size_gb;
}

std::size_t TraceReader::chunk_file_count(std::size_t index) const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(ext_.files_per_chunk,
                              header_.file_count -
                                  static_cast<std::uint64_t>(index) *
                                      ext_.files_per_chunk));
}

void TraceReader::decode_chunk_into(std::size_t index,
                                    std::span<std::byte> raw_out) const {
  const ChunkEntry& e = chunk_table_[index];
  const std::span<const std::byte> encoded{at(header_.freq_offset + e.offset),
                                           e.encoded_bytes};
  MC_OBS_SCOPE("store.codec.decode");
  if (crc32(encoded.data(), encoded.size()) != e.crc)
    throw std::runtime_error("chunk " + std::to_string(index) +
                             " checksum mismatch (corrupt frequency data)");
  const codec::ChunkLayout layout{
      chunk_file_count(index), static_cast<std::size_t>(header_.days),
      static_cast<std::size_t>(header_.series_stride)};
  codec::decode_chunk(e.codec_id, layout, encoded, raw_out);
  MC_OBS_COUNT("store.codec.chunks_decoded", 1);
  MC_OBS_COUNT("store.codec.bytes_encoded", e.encoded_bytes);
  MC_OBS_COUNT("store.codec.bytes_decoded", e.raw_bytes);
}

const std::byte* TraceReader::decoded_freq_base() const {
  util::MutexLock lock(freq_mutex_);
  if (decoded_base_ == nullptr) {
    // Over-allocate so the first series can sit on a 64-byte boundary, the
    // same alignment the mapped v1 section provides.
    decoded_freq_.resize(static_cast<std::size_t>(ext_.freq_raw_bytes) +
                         kSeriesAlign);
    auto addr = reinterpret_cast<std::uintptr_t>(decoded_freq_.data());
    std::byte* aligned = decoded_freq_.data() +
                         (round_up(addr, kSeriesAlign) - addr);
    const std::uint64_t chunk_raw_stride =
        static_cast<std::uint64_t>(ext_.files_per_chunk) * 2 *
        header_.series_stride;
    for (std::size_t c = 0; c < ext_.chunk_count; ++c)
      decode_chunk_into(
          c, {aligned + static_cast<std::size_t>(c) * chunk_raw_stride,
              static_cast<std::size_t>(chunk_table_[c].raw_bytes)});
    decoded_base_ = aligned;
  }
  return decoded_base_;
}

std::span<const double> TraceReader::reads(std::size_t file) const {
  if (file >= header_.file_count)
    throw std::out_of_range("TraceReader::reads: file index out of range");
  const std::byte* freq =
      is_v2() ? decoded_freq_base() : at(header_.freq_offset);
  const auto* series = reinterpret_cast<const double*>(
      freq + file * 2 * header_.series_stride);
  return {series, header_.days};
}

std::span<const double> TraceReader::writes(std::size_t file) const {
  if (file >= header_.file_count)
    throw std::out_of_range("TraceReader::writes: file index out of range");
  const std::byte* freq =
      is_v2() ? decoded_freq_base() : at(header_.freq_offset);
  const auto* series = reinterpret_cast<const double*>(
      freq + file * 2 * header_.series_stride + header_.series_stride);
  return {series, header_.days};
}

TraceReader::GroupView TraceReader::group(std::size_t index) const {
  if (index >= group_offsets_.size())
    throw std::out_of_range("TraceReader::group: group index out of range");
  std::uint64_t pos = header_.groups_offset + group_offsets_[index];
  std::uint32_t count = 0;
  std::memcpy(&count, at(pos), sizeof count);
  pos += 2 * sizeof(std::uint32_t);
  const auto* members = reinterpret_cast<const trace::FileId*>(at(pos));
  pos = round_up(pos + count * sizeof(trace::FileId), kGroupAlign);
  const auto* series = reinterpret_cast<const double*>(at(pos));
  return {{members, count}, {series, header_.days}};
}

void TraceReader::verify_checksums() const {
  MC_OBS_SCOPE("store.reader.crc_scan");
  MC_OBS_COUNT("store.reader.crc_bytes", mapped_bytes_);
  const auto check = [&](std::uint64_t offset, std::uint64_t bytes,
                         std::uint32_t expected, const char* section) {
    if (crc32(at(offset), bytes) != expected)
      throw std::runtime_error(std::string(section) + " checksum mismatch");
  };
  if (crc32(&header_, offsetof(Header, crc_header)) != header_.crc_header)
    throw std::runtime_error("header checksum mismatch");
  check(header_.freq_offset, header_.freq_bytes, header_.crc_freq,
        "frequency section");
  check(header_.file_table_offset, header_.file_table_bytes,
        header_.crc_file_table, "file table");
  check(header_.names_offset, header_.names_bytes, header_.crc_names,
        "name blob");
  check(header_.groups_offset, header_.groups_bytes, header_.crc_groups,
        "group section");
  if (is_v2()) {
    if (crc32(&ext_, offsetof(HeaderV2Ext, crc_ext)) != ext_.crc_ext)
      throw std::runtime_error("v2 header extension checksum mismatch");
    check(ext_.chunk_table_offset, ext_.chunk_table_bytes,
          ext_.crc_chunk_table, "chunk table");
    // Per-chunk CRCs plus a full decode: a chunk whose encoded bytes
    // checksum correctly can still carry a malformed stream, and verify is
    // the one path expected to pay for finding out.
    std::vector<std::byte> scratch;
    for (std::size_t c = 0; c < ext_.chunk_count; ++c) {
      scratch.resize(static_cast<std::size_t>(chunk_table_[c].raw_bytes));
      decode_chunk_into(c, scratch);
    }
  }
}

void TraceReader::collect_groups(
    std::size_t first, std::size_t count,
    std::vector<trace::CoRequestGroup>& groups) const {
  for (std::size_t g = 0; g < group_offsets_.size(); ++g) {
    const GroupView view = group(g);
    bool inside = true;
    for (const trace::FileId m : view.members)
      if (m < first || m >= first + count) {
        inside = false;
        break;
      }
    if (!inside) continue;
    trace::CoRequestGroup copy;
    copy.members.reserve(view.members.size());
    for (const trace::FileId m : view.members)
      copy.members.push_back(static_cast<trace::FileId>(m - first));
    copy.concurrent_reads.assign(view.concurrent_reads.begin(),
                                 view.concurrent_reads.end());
    groups.push_back(std::move(copy));
  }
}

trace::RequestTrace TraceReader::materialize_shard(std::size_t first,
                                                   std::size_t count) const {
  if (count > header_.file_count || first > header_.file_count - count)
    throw std::out_of_range("TraceReader::materialize_shard: bad file range");
  MC_OBS_COUNT("store.reader.files_materialized", count);
  std::vector<trace::FileRecord> files;
  files.reserve(count);
  const auto push_file = [&](std::size_t i, const std::byte* series_base) {
    trace::FileRecord f;
    f.name = std::string(name(i));
    f.size_gb = size_gb(i);
    const auto* r = reinterpret_cast<const double*>(series_base);
    const auto* w = reinterpret_cast<const double*>(series_base +
                                                    header_.series_stride);
    f.reads.assign(r, r + header_.days);
    f.writes.assign(w, w + header_.days);
    files.push_back(std::move(f));
  };
  if (!is_v2()) {
    for (std::size_t i = first; i < first + count; ++i)
      push_file(i, at(header_.freq_offset + i * 2 * header_.series_stride));
  } else if (count > 0) {
    // Decode only the chunks the range overlaps, into local scratch — no
    // shared state, so concurrent materializations need no locking and
    // resident memory stays O(chunk + shard), not O(trace).
    std::vector<std::byte> scratch;
    const std::size_t last = first + count - 1;
    for (std::size_t c = first / ext_.files_per_chunk;
         c <= last / ext_.files_per_chunk; ++c) {
      const std::size_t chunk_first = c * ext_.files_per_chunk;
      const std::size_t in_chunk = chunk_file_count(c);
      scratch.resize(static_cast<std::size_t>(chunk_table_[c].raw_bytes));
      decode_chunk_into(c, scratch);
      const std::size_t lo = std::max(first, chunk_first);
      const std::size_t hi = std::min(first + count, chunk_first + in_chunk);
      for (std::size_t i = lo; i < hi; ++i)
        push_file(i, scratch.data() +
                         (i - chunk_first) * 2 * header_.series_stride);
    }
  }
  std::vector<trace::CoRequestGroup> groups;
  collect_groups(first, count, groups);
  return trace::RequestTrace(header_.days, std::move(files),
                             std::move(groups));
}

trace::RequestTrace TraceReader::materialize() const {
  return materialize_shard(0, header_.file_count);
}

void TraceReader::release_frequency_range(std::size_t first,
                                          std::size_t count) const {
  if (count > header_.file_count || first > header_.file_count - count)
    throw std::out_of_range(
        "TraceReader::release_frequency_range: bad file range");
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  std::uint64_t range_begin = first * 2 * header_.series_stride;
  std::uint64_t range_end = (first + count) * 2 * header_.series_stride;
  if (is_v2()) {
    // Map the file range to the encoded bytes of the chunks it fully or
    // partially covers; those are the pages a materialization touched.
    if (count == 0) return;
    const std::size_t cfirst = first / ext_.files_per_chunk;
    const std::size_t clast = (first + count - 1) / ext_.files_per_chunk;
    range_begin = chunk_table_[cfirst].offset;
    range_end = chunk_table_[clast].offset + chunk_table_[clast].encoded_bytes;
  }
  const std::uint64_t begin = round_up(header_.freq_offset + range_begin, page);
  const std::uint64_t end = (header_.freq_offset + range_end) / page * page;
  if (end <= begin) return;
  MC_OBS_COUNT("store.reader.pages_released", (end - begin) / page);
  // Advisory only: a failure (e.g. an unusual filesystem) costs memory
  // headroom, not correctness, so it is deliberately ignored.
  ::madvise(const_cast<std::byte*>(base_) + begin,
            static_cast<std::size_t>(end - begin), MADV_DONTNEED);
}

}  // namespace minicost::store
