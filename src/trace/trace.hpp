#pragma once
// The request-trace data model. A trace is the only workload input MiniCost
// consumes: per-file daily read/write frequencies plus file sizes, and
// (for the aggregation enhancement, paper Sec. 5.2) co-request groups of
// files that tend to be requested concurrently — e.g. assets linked from
// one webpage.
//
// Frequencies are stored as doubles (daily rates): all downstream cost
// formulas (paper Eq. 6-9) are linear in the frequencies, so fractional
// rates are exact; the synthetic generator produces rates directly and the
// pagecounts parser produces integral counts.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace minicost::trace {

using FileId = std::uint32_t;

/// One data file of the web application.
struct FileRecord {
  std::string name;            ///< article title / synthetic id
  double size_gb = 0.0;        ///< constant over the horizon (paper Sec. 3.1)
  std::vector<double> reads;   ///< daily read frequency, index = day
  std::vector<double> writes;  ///< daily write (update) frequency
};

/// A set of files frequently requested together (linked to one webpage),
/// with the daily frequency of the *concurrent* requests (the paper's
/// r_dc). Used by the aggregation enhancement.
struct CoRequestGroup {
  std::vector<FileId> members;
  std::vector<double> concurrent_reads;  ///< daily r_dc, index = day
};

/// A full workload trace.
class RequestTrace {
 public:
  RequestTrace() = default;
  RequestTrace(std::size_t days, std::vector<FileRecord> files,
               std::vector<CoRequestGroup> groups = {});

  std::size_t days() const noexcept { return days_; }
  std::size_t file_count() const noexcept { return files_.size(); }
  const std::vector<FileRecord>& files() const noexcept { return files_; }
  const FileRecord& file(FileId id) const { return files_.at(id); }
  const std::vector<CoRequestGroup>& groups() const noexcept { return groups_; }

  /// Read frequency of file `id` on `day` (bounds-checked).
  double reads(FileId id, std::size_t day) const;
  double writes(FileId id, std::size_t day) const;

  /// Per-file variability: the standard deviation of the file's daily read
  /// frequencies normalized by its mean (coefficient of variation). This is
  /// the x-axis statistic of the paper's Figures 2-4 and 8; normalization
  /// makes the 0-0.1 ... >0.8 bucket edges meaningful across popularity
  /// scales. Returns 0 for files with zero mean frequency.
  double variability(FileId id) const;

  /// Sub-trace covering days [from, from+len). Groups are windowed too.
  /// Throws std::out_of_range if the window exceeds the horizon.
  RequestTrace window(std::size_t from, std::size_t len) const;

  /// Sub-trace with only the given files (group membership is remapped;
  /// groups losing members below 2 are dropped).
  RequestTrace select_files(std::span<const FileId> ids) const;

  /// Random (`seed`-deterministic) split into train/test file sets with the
  /// given train fraction (paper: 80/20). Both sides keep the full horizon.
  std::pair<RequestTrace, RequestTrace> split(double train_fraction,
                                              std::uint64_t seed) const;

  /// Total bytes under management, in GB.
  double total_size_gb() const noexcept;

  /// Validates internal consistency (series lengths match the horizon,
  /// non-negative values, group members in range). Throws
  /// std::invalid_argument with a description on the first violation.
  void validate() const;

  /// Mutable access for builders (generator, parser, aggregation rewrite).
  std::vector<FileRecord>& mutable_files() noexcept { return files_; }
  std::vector<CoRequestGroup>& mutable_groups() noexcept { return groups_; }

 private:
  std::size_t days_ = 0;
  std::vector<FileRecord> files_;
  std::vector<CoRequestGroup> groups_;
};

/// A borrowed run of a trace's files over its whole horizon: what planning
/// and billing read (core::PlanContext, sim::StorageSimulator). Built
/// implicitly from a RequestTrace, which must outlive it; subview() narrows
/// it to a block of files without copying them. Carries no co-request
/// groups: no planning policy reads them.
class TraceView {
 public:
  TraceView() = default;
  /// Implicit: every whole trace is a view of itself.
  TraceView(const RequestTrace& trace) noexcept
      : days_(trace.days()), files_(trace.files()) {}

  std::size_t days() const noexcept { return days_; }
  std::size_t file_count() const noexcept { return files_.size(); }
  std::span<const FileRecord> files() const noexcept { return files_; }
  /// File `id` of the view (bounds-checked: std::out_of_range).
  const FileRecord& file(FileId id) const;

  /// Files [first, first + count) of this view (std::out_of_range past its
  /// end).
  TraceView subview(std::size_t first, std::size_t count) const;

 private:
  TraceView(std::size_t days, std::span<const FileRecord> files) noexcept
      : days_(days), files_(files) {}

  std::size_t days_ = 0;
  std::span<const FileRecord> files_;
};

}  // namespace minicost::trace
