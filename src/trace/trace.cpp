#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace minicost::trace {

RequestTrace::RequestTrace(std::size_t days, std::vector<FileRecord> files,
                           std::vector<CoRequestGroup> groups)
    : days_(days), files_(std::move(files)), groups_(std::move(groups)) {}

double RequestTrace::reads(FileId id, std::size_t day) const {
  return files_.at(id).reads.at(day);
}

double RequestTrace::writes(FileId id, std::size_t day) const {
  return files_.at(id).writes.at(day);
}

double RequestTrace::variability(FileId id) const {
  const FileRecord& f = files_.at(id);
  const double m = stats::mean(f.reads);
  if (m <= 0.0) return 0.0;
  return stats::stddev(f.reads) / m;
}

RequestTrace RequestTrace::window(std::size_t from, std::size_t len) const {
  if (from + len > days_)
    throw std::out_of_range("RequestTrace::window: beyond horizon");
  std::vector<FileRecord> files;
  files.reserve(files_.size());
  for (const FileRecord& f : files_) {
    FileRecord w;
    w.name = f.name;
    w.size_gb = f.size_gb;
    w.reads.assign(f.reads.begin() + static_cast<std::ptrdiff_t>(from),
                   f.reads.begin() + static_cast<std::ptrdiff_t>(from + len));
    w.writes.assign(f.writes.begin() + static_cast<std::ptrdiff_t>(from),
                    f.writes.begin() + static_cast<std::ptrdiff_t>(from + len));
    files.push_back(std::move(w));
  }
  std::vector<CoRequestGroup> groups;
  groups.reserve(groups_.size());
  for (const CoRequestGroup& g : groups_) {
    CoRequestGroup w;
    w.members = g.members;
    w.concurrent_reads.assign(
        g.concurrent_reads.begin() + static_cast<std::ptrdiff_t>(from),
        g.concurrent_reads.begin() + static_cast<std::ptrdiff_t>(from + len));
    groups.push_back(std::move(w));
  }
  return RequestTrace(len, std::move(files), std::move(groups));
}

RequestTrace RequestTrace::select_files(std::span<const FileId> ids) const {
  std::vector<FileRecord> files;
  files.reserve(ids.size());
  std::unordered_map<FileId, FileId> remap;
  remap.reserve(ids.size());
  for (FileId id : ids) {
    remap.emplace(id, static_cast<FileId>(files.size()));
    files.push_back(files_.at(id));
  }
  std::vector<CoRequestGroup> groups;
  for (const CoRequestGroup& g : groups_) {
    CoRequestGroup selected;
    for (FileId m : g.members) {
      if (auto it = remap.find(m); it != remap.end())
        selected.members.push_back(it->second);
    }
    if (selected.members.size() >= 2) {
      selected.concurrent_reads = g.concurrent_reads;
      groups.push_back(std::move(selected));
    }
  }
  return RequestTrace(days_, std::move(files), std::move(groups));
}

std::pair<RequestTrace, RequestTrace> RequestTrace::split(
    double train_fraction, std::uint64_t seed) const {
  if (train_fraction < 0.0 || train_fraction > 1.0)
    throw std::invalid_argument("RequestTrace::split: fraction outside [0,1]");
  std::vector<FileId> ids(files_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<FileId>(i);
  util::Rng rng(seed);
  rng.shuffle(ids);
  const auto cut = static_cast<std::size_t>(
      train_fraction * static_cast<double>(ids.size()) + 0.5);
  std::vector<FileId> train_ids(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(cut));
  std::vector<FileId> test_ids(ids.begin() + static_cast<std::ptrdiff_t>(cut), ids.end());
  // Keep ordering stable inside each side for reproducible reports.
  std::sort(train_ids.begin(), train_ids.end());
  std::sort(test_ids.begin(), test_ids.end());
  return {select_files(train_ids), select_files(test_ids)};
}

double RequestTrace::total_size_gb() const noexcept {
  double total = 0.0;
  for (const FileRecord& f : files_) total += f.size_gb;
  return total;
}

void RequestTrace::validate() const {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const FileRecord& f = files_[i];
    if (f.reads.size() != days_ || f.writes.size() != days_)
      throw std::invalid_argument("trace: file " + f.name +
                                  " series length != horizon");
    if (f.size_gb < 0.0)
      throw std::invalid_argument("trace: file " + f.name + " negative size");
    for (double r : f.reads)
      if (r < 0.0)
        throw std::invalid_argument("trace: file " + f.name + " negative reads");
    for (double w : f.writes)
      if (w < 0.0)
        throw std::invalid_argument("trace: file " + f.name + " negative writes");
  }
  for (const CoRequestGroup& g : groups_) {
    if (g.members.size() < 2)
      throw std::invalid_argument("trace: co-request group with < 2 members");
    if (g.concurrent_reads.size() != days_)
      throw std::invalid_argument("trace: group series length != horizon");
    for (FileId m : g.members)
      if (m >= files_.size())
        throw std::invalid_argument("trace: group member out of range");
    // r_dc cannot exceed any member's own request frequency on any day.
    for (std::size_t day = 0; day < days_; ++day) {
      for (FileId m : g.members) {
        if (g.concurrent_reads[day] > files_[m].reads[day] + 1e-9)
          throw std::invalid_argument(
              "trace: concurrent reads exceed member reads");
      }
    }
  }
}

const FileRecord& TraceView::file(FileId id) const {
  if (id >= files_.size())
    throw std::out_of_range("TraceView::file: id past the view");
  return files_[id];
}

TraceView TraceView::subview(std::size_t first, std::size_t count) const {
  if (first > files_.size() || count > files_.size() - first)
    throw std::out_of_range("TraceView::subview: range past the view");
  return TraceView(days_, files_.subspan(first, count));
}

}  // namespace minicost::trace
