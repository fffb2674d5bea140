#pragma once
// mmap reader for the .mct columnar trace container (format.hpp).
//
// open() maps the file read-only and validates the header, section bounds,
// and all *metadata* checksums (file table, names, groups) — rejecting
// truncated files, foreign magic/endianness, versions from the future, and
// bit flips with a message naming what failed. The multi-GB frequency
// section is deliberately NOT paged in by open(); verify_checksums() (the
// `minicost verify` path) does that full scan on demand.
//
// Series leave the container one way: materialize_shard() copies any
// contiguous file range into an ordinary RequestTrace (decoding only the v2
// chunks the range overlaps), which is what the shard-streamed planning
// driver (core/plan_driver.hpp) iterates over with O(shard) rather than
// O(trace) resident memory. Given the driver's pool, it decodes the chunks
// in parallel, one contiguous run of chunks per thread; the delta codec
// decodes each chunk in one pass over its stream (codec/chunk_codec.cpp).

#include <cstdint>
#include <filesystem>
#include <span>
#include <string_view>
#include <vector>

#include "store/format.hpp"
#include "trace/trace.hpp"

namespace minicost::util {
class ThreadPool;
}  // namespace minicost::util

namespace minicost::store {

class TraceReader {
 public:
  /// Maps `path` and validates it (see file comment). Throws
  /// std::runtime_error with a "path: what failed" message on any problem.
  explicit TraceReader(const std::filesystem::path& path);
  ~TraceReader();

  TraceReader(TraceReader&& other) noexcept;
  TraceReader& operator=(TraceReader&& other) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  std::size_t days() const noexcept { return header_.days; }
  std::size_t file_count() const noexcept { return header_.file_count; }
  std::size_t group_count() const noexcept { return header_.group_count; }
  /// Whole-container size on disk, in bytes.
  std::uint64_t total_bytes() const noexcept { return header_.total_bytes; }
  const Header& header() const noexcept { return header_; }

  /// True for a version 2 (chunk-encoded) container.
  bool is_v2() const noexcept { return header_.version == kFormatVersionV2; }
  /// The v2 header extension; meaningful only when is_v2().
  const HeaderV2Ext& v2_ext() const noexcept { return ext_; }
  /// The v2 chunk table (empty for v1 containers).
  std::span<const ChunkEntry> chunk_table() const noexcept {
    return {chunk_table_, is_v2() ? ext_.chunk_count : 0};
  }
  /// Bytes the frequency section occupies once decoded (== freq_bytes for
  /// v1, where it is stored uncompressed).
  std::uint64_t freq_raw_bytes() const noexcept {
    return is_v2() ? ext_.freq_raw_bytes : header_.freq_bytes;
  }

  std::string_view name(std::size_t file) const;
  double size_gb(std::size_t file) const;

  struct GroupView {
    std::span<const trace::FileId> members;
    std::span<const double> concurrent_reads;
  };
  GroupView group(std::size_t index) const;

  /// Full-file integrity check including the frequency section (pages in
  /// the whole mapping). Throws std::runtime_error on the first mismatch.
  void verify_checksums() const;

  /// Copies files [first, first + count) into an ordinary RequestTrace.
  /// Co-request groups whose members all fall inside the range are included
  /// with members remapped to shard-local ids; groups straddling the range
  /// boundary are dropped (the shard evaluation path is defined for
  /// per-file policies, DESIGN.md §9). Throws std::out_of_range on a bad
  /// range, std::runtime_error on a corrupt chunk.
  ///
  /// With a `pool`, the range's chunks (v2) or files (v1) split into one
  /// contiguous block per pool thread, and each block decodes and copies
  /// its own series. The calling thread allocates every buffer the shard
  /// keeps, and one chunk scratch per block, before the blocks run. The
  /// result, and on a corrupt container the exception, are the same bytes
  /// for every pool size: the error is that of the first bad chunk in
  /// file order.
  trace::RequestTrace materialize_shard(std::size_t first, std::size_t count,
                                        util::ThreadPool* pool = nullptr) const;

  /// The whole trace as a RequestTrace (== materialize_shard(0, all)).
  trace::RequestTrace materialize() const;

  /// Advises the kernel to drop the resident frequency pages of files
  /// [first, first + count) (rounded inward to page boundaries). The data
  /// stays valid — later accesses fault it back in — but the process RSS
  /// stops accumulating mapped trace pages, which is what keeps a
  /// shard-streamed scan's footprint bounded by the shard, not the trace.
  void release_frequency_range(std::size_t first, std::size_t count) const;

 private:
  const std::byte* at(std::uint64_t offset) const noexcept {
    return base_ + offset;
  }
  void validate(const std::filesystem::path& path);
  void validate_v2(const std::filesystem::path& path);
  /// Files covered by chunk `index` (the last chunk may be partial).
  std::size_t chunk_file_count(std::size_t index) const noexcept;
  /// CRC-checks and decodes chunk `index` into `raw_out` (sized exactly
  /// chunk_table_[index].raw_bytes). Thread-safe: reads only the immutable
  /// mapping. Throws std::runtime_error on corruption.
  void decode_chunk_into(std::size_t index, std::span<std::byte> raw_out) const;
  void collect_groups(std::size_t first, std::size_t count,
                      std::vector<trace::CoRequestGroup>& groups) const;

  const std::byte* base_ = nullptr;
  std::size_t mapped_bytes_ = 0;
  Header header_{};
  HeaderV2Ext ext_{};  ///< zeroed for v1 containers
  const FileEntry* file_table_ = nullptr;
  const ChunkEntry* chunk_table_ = nullptr;  ///< v2 only
  /// Offset of each group record inside the group section (built on open;
  /// group records are variable-length so random access needs an index).
  std::vector<std::uint64_t> group_offsets_;
};

}  // namespace minicost::store
