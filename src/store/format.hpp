#pragma once
// The `.mct` on-disk trace container (MiniCost Trace, versions 1 and 2): a
// versioned, checksummed, *columnar* binary format sized for
// Wikipedia-scale workloads (millions of files x a multi-month horizon),
// where the CSV container of trace/trace_io.hpp stops being practical.
//
// Version 1 layout (all integers little-endian, offsets from file start):
//
//   [header]      4096 bytes, struct Header below, zero-padded
//   [frequency]   file-major series blocks: for file i, its reads series
//                 then its writes series, each occupying `series_stride`
//                 bytes (days * 8 rounded up to 64). Every series therefore
//                 starts 64-byte aligned in the file (and in a decoded v2
//                 chunk).
//   [file table]  file_count x FileEntry (name slice + size_gb)
//   [name blob]   concatenated UTF-8 names, sliced by the file table
//   [group section] co-request groups, 8-byte aligned records:
//                     u32 member_count, u32 reserved(0),
//                     u32 members[member_count], pad to 8,
//                     f64 concurrent_reads[days]
//
// Version 2 keeps the Header struct (version == 2) and adds a HeaderV2Ext
// at fixed offset kV2ExtOffset inside the same 4096-byte block. The
// frequency section becomes a sequence of contiguous *encoded chunks*
// (src/codec/chunk_codec.hpp): chunk i holds the v1-layout frequency bytes
// of files [i*files_per_chunk, min((i+1)*files_per_chunk, file_count)),
// compressed by the per-chunk codec recorded in its ChunkEntry. A chunk
// table (chunk_count x ChunkEntry, at round_up(freq end, kGroupAlign))
// sits between the frequency section and the file table; every other
// section is laid out exactly as in v1. `freq_bytes` is the *encoded*
// size; the decoded size lives in HeaderV2Ext::freq_raw_bytes. Decoding a
// chunk reproduces the v1 64-byte-aligned file-major bytes exactly, so
// TraceReader::materialize_shard() copies identical series either way.
//
// Integrity: each section carries a CRC32 in the header, and the header
// itself is CRC'd over every byte that precedes its own checksum field.
// In v2 every chunk additionally carries a CRC32 of its encoded bytes,
// verified on every decode. Opening a file verifies the header and all
// *metadata* sections (in v2: also the ext and the chunk table); the
// frequency section's CRC — a full scan of what can be many GB — is checked
// by TraceReader::verify_checksums() (`minicost verify`), so a plain open
// never pages in the bulk data. See DESIGN.md §9/§13 for the full field
// tables and the versioning/compat rules.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace minicost::store {

inline constexpr char kMagic[8] = {'M', 'C', 'T', 'R', 'A', 'C', 'E', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kFormatVersionV2 = 2;
/// Fixed offset of HeaderV2Ext inside the 4096-byte header block. Placed
/// well past sizeof(Header) so v1 field additions never collide, and at a
/// fixed offset (not sizeof(Header)) so struct padding can't shift it.
inline constexpr std::size_t kV2ExtOffset = 256;
/// Ceiling on HeaderV2Ext::files_per_chunk. Bounds the raw size of any
/// single chunk — and therefore every decode scratch allocation — to
/// files_per_chunk * 2 * series_stride regardless of what a hostile header
/// claims.
inline constexpr std::uint32_t kMaxFilesPerChunk = 1u << 20;
/// Written as 0x01020304 by the native-endian writer; a reader seeing the
/// byte-swapped value is on a foreign-endian host and must reject the file.
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr std::size_t kHeaderBytes = 4096;
/// Series blocks are padded to this boundary (the SIMD kernel alignment).
inline constexpr std::size_t kSeriesAlign = 64;
/// Group records are padded so their f64 series stays naturally aligned.
inline constexpr std::size_t kGroupAlign = 8;

constexpr std::uint64_t round_up(std::uint64_t v, std::uint64_t a) noexcept {
  return (v + a - 1) / a * a;
}

/// One row of the file table.
struct FileEntry {
  std::uint64_t name_offset = 0;  ///< into the name blob
  std::uint32_t name_bytes = 0;
  std::uint32_t reserved = 0;     ///< must be zero in version 1
  double size_gb = 0.0;
};
static_assert(sizeof(FileEntry) == 24 && std::is_trivially_copyable_v<FileEntry>);

/// The fixed header at offset 0. Fields through `crc_header` are meaningful;
/// the remainder of the 4096-byte block is zero padding (reserved — a future
/// version may claim it, which is why version 1 readers require it zeroed).
struct Header {
  char magic[8] = {};            ///< kMagic
  std::uint32_t endian_tag = 0;  ///< kEndianTag
  std::uint32_t version = 0;     ///< kFormatVersion
  std::uint64_t days = 0;
  std::uint64_t file_count = 0;
  std::uint64_t group_count = 0;
  std::uint64_t series_stride = 0;  ///< bytes per series block
  std::uint64_t freq_offset = 0;
  std::uint64_t freq_bytes = 0;
  std::uint64_t file_table_offset = 0;
  std::uint64_t file_table_bytes = 0;
  std::uint64_t names_offset = 0;
  std::uint64_t names_bytes = 0;
  std::uint64_t groups_offset = 0;
  std::uint64_t groups_bytes = 0;
  std::uint64_t total_bytes = 0;  ///< whole-file size; truncation detector
  std::uint32_t crc_freq = 0;
  std::uint32_t crc_file_table = 0;
  std::uint32_t crc_names = 0;
  std::uint32_t crc_groups = 0;
  std::uint32_t crc_header = 0;  ///< CRC32 of the bytes preceding this field
};
static_assert(sizeof(Header) <= kHeaderBytes &&
              std::is_trivially_copyable_v<Header>);

/// One row of the v2 chunk table. Entries are ordered and contiguous:
/// entry 0 starts at offset 0 (relative to freq_offset) and each entry
/// starts where the previous one ends, so `offset`/`encoded_bytes` are
/// fully determined — the reader re-derives and cross-checks them.
struct ChunkEntry {
  std::uint64_t offset = 0;         ///< of the encoded bytes, from freq_offset
  std::uint64_t encoded_bytes = 0;  ///< on-disk size (<= raw_bytes, always)
  std::uint64_t raw_bytes = 0;      ///< decoded size: files_in_chunk * 2 * stride
  std::uint32_t codec_id = 0;       ///< codec::kCodec* id that encoded this chunk
  std::uint32_t crc = 0;            ///< CRC32 of the encoded bytes
};
static_assert(sizeof(ChunkEntry) == 32 &&
              std::is_trivially_copyable_v<ChunkEntry>);

/// The v2 header extension at kV2ExtOffset. CRC'd independently of the v1
/// Header (crc_ext covers every preceding ext byte) so v1 tooling that
/// rewrites Header fields cannot silently invalidate v2 metadata.
struct HeaderV2Ext {
  std::uint32_t codec_id = 0;        ///< codec the writer was asked for
  std::uint32_t files_per_chunk = 0; ///< > 0, <= kMaxFilesPerChunk
  std::uint64_t chunk_count = 0;     ///< ceil(file_count / files_per_chunk)
  std::uint64_t chunk_table_offset = 0;
  std::uint64_t chunk_table_bytes = 0;  ///< chunk_count * sizeof(ChunkEntry)
  std::uint64_t freq_raw_bytes = 0;     ///< decoded size: file_count * 2 * stride
  std::uint32_t crc_chunk_table = 0;
  std::uint32_t crc_ext = 0;  ///< CRC32 of the ext bytes preceding this field
};
static_assert(sizeof(HeaderV2Ext) == 48 &&
              std::is_trivially_copyable_v<HeaderV2Ext>);
static_assert(kV2ExtOffset >= sizeof(Header) &&
              kV2ExtOffset + sizeof(HeaderV2Ext) <= kHeaderBytes);

/// Bytes one (reads or writes) series block occupies on disk.
constexpr std::uint64_t series_stride_bytes(std::uint64_t days) noexcept {
  return round_up(days * sizeof(double), kSeriesAlign);
}

}  // namespace minicost::store
