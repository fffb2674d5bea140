#pragma once
// The paper's Section 3 trace analysis: per-file variability statistics and
// the bucket decomposition behind Figures 2, 3, 4 and 8.

#include <cstdint>
#include <vector>

#include "stats/histogram.hpp"
#include "trace/trace.hpp"

namespace minicost::trace {

/// Per-bucket summary of a trace's variability distribution (Figure 2).
struct VariabilityAnalysis {
  std::vector<double> per_file_variability;  ///< indexed by FileId
  stats::Histogram histogram;                ///< paper's 5 std-dev buckets
  /// FileIds grouped by bucket, for per-bucket cost/error breakdowns.
  std::vector<std::vector<FileId>> bucket_members;
};

/// Computes each file's variability (CV of daily reads, see
/// RequestTrace::variability) and buckets them with the paper's edges.
VariabilityAnalysis analyze_variability(const RequestTrace& trace);

}  // namespace minicost::trace
