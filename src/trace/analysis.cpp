#include "trace/analysis.hpp"

namespace minicost::trace {

VariabilityAnalysis analyze_variability(const RequestTrace& trace) {
  VariabilityAnalysis analysis{
      {}, stats::paper_stddev_histogram(), {}};
  const std::size_t n = trace.file_count();
  analysis.per_file_variability.resize(n);
  analysis.bucket_members.resize(analysis.histogram.bucket_count());
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<FileId>(i);
    const double cv = trace.variability(id);
    analysis.per_file_variability[i] = cv;
    analysis.histogram.add(cv);
    analysis.bucket_members[analysis.histogram.bucket_of(cv)].push_back(id);
  }
  return analysis;
}

}  // namespace minicost::trace
