#pragma once
// Zero-copy mmap reader for the .mct columnar trace container (format.hpp).
//
// open() maps the file read-only and validates the header, section bounds,
// and all *metadata* checksums (file table, names, groups) — rejecting
// truncated files, foreign magic/endianness, versions from the future, and
// bit flips with a message naming what failed. The multi-GB frequency
// section is deliberately NOT paged in by open(); verify_checksums() (the
// `minicost verify` path) does that full scan on demand.
//
// Per-file series come back as std::span<const double> straight into the
// mapping — 64-byte aligned, so the PR 1 SIMD kernels can consume them in
// place — and materialize_shard() builds an ordinary RequestTrace for any
// contiguous file range, which is what the shard-streamed planning driver
// (core/plan_driver.hpp) iterates over with O(shard) rather than O(trace)
// resident memory.

#include <cstdint>
#include <filesystem>
#include <span>
#include <string_view>
#include <vector>

#include "store/format.hpp"
#include "trace/trace.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace minicost::store {

class TraceReader {
 public:
  /// Maps `path` and validates it (see file comment). Throws
  /// std::runtime_error with a "path: what failed" message on any problem.
  explicit TraceReader(const std::filesystem::path& path);
  ~TraceReader();

  // Moves transfer the decoded-frequency cache without locking: moving a
  // reader that another thread is concurrently using is already a race, so
  // the analysis is waived rather than pretending a lock would fix it.
  TraceReader(TraceReader&& other) noexcept MC_NO_THREAD_SAFETY_ANALYSIS;
  TraceReader& operator=(TraceReader&& other) noexcept
      MC_NO_THREAD_SAFETY_ANALYSIS;
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
  /// The file's daily read/write series, 64-byte aligned. v1: mapped in
  /// place, zero copies. v2: served from a lazily-decoded resident copy of
  /// the whole frequency section (built once, under an internal lock) —
  /// random access over a chunked container costs O(section) memory, so the
  /// shard-sized paths go through materialize_shard() instead, which decodes
  /// only the overlapping chunks.
  std::span<const double> reads(std::size_t file) const;
  std::span<const double> writes(std::size_t file) const;

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
  /// range.
  trace::RequestTrace materialize_shard(std::size_t first,
                                        std::size_t count) const;

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
  /// v2 reads()/writes() backing store: decodes the whole frequency section
  /// once (64-byte aligned) and returns its base. Safe to call concurrently.
  const std::byte* decoded_freq_base() const;
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
  /// Lazily-built decoded frequency section for v2 random access. The
  /// vector over-allocates by kSeriesAlign so decoded_base_ can be aligned;
  /// once built (empty -> full transition under freq_mutex_) the contents
  /// are immutable.
  mutable util::Mutex freq_mutex_;
  mutable std::vector<std::byte> decoded_freq_ MC_GUARDED_BY(freq_mutex_);
  mutable const std::byte* decoded_base_ MC_GUARDED_BY(freq_mutex_) = nullptr;
};

}  // namespace minicost::store
