#include "trace/pagecounts_parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace minicost::trace {
namespace {

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<PagecountsLine> parse_pagecounts_line(std::string_view line) {
  // Field layout: project SP title SP views SP bytes. Titles never contain
  // spaces in the dump (they are percent/underscore encoded).
  std::array<std::string_view, 4> fields;
  std::size_t field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (field >= fields.size()) return std::nullopt;  // too many fields
      fields[field++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  if (field != fields.size()) return std::nullopt;
  if (fields[0].empty() || fields[1].empty()) return std::nullopt;

  const auto views = parse_u64(fields[2]);
  const auto bytes = parse_u64(fields[3]);
  if (!views || !bytes) return std::nullopt;

  PagecountsLine parsed;
  parsed.project = std::string(fields[0]);
  parsed.title = std::string(fields[1]);
  parsed.views = *views;
  parsed.bytes = *bytes;
  return parsed;
}

std::array<std::uint64_t, 24> decode_hour_string(std::string_view encoded) {
  std::array<std::uint64_t, 24> hours{};
  std::size_t i = 0;
  while (i < encoded.size()) {
    const char letter = encoded[i++];
    if (letter < 'A' || letter > 'X') continue;  // skip unknown markers
    const std::size_t hour = static_cast<std::size_t>(letter - 'A');
    std::size_t j = i;
    while (j < encoded.size() &&
           encoded[j] >= '0' && encoded[j] <= '9')
      ++j;
    if (j > i) {
      if (const auto value = parse_u64(encoded.substr(i, j - i))) {
        hours[hour] += *value;
      }
    }
    i = j;
  }
  return hours;
}

std::optional<PagecountsEzLine> parse_pagecounts_ez_line(std::string_view line) {
  // Split into exactly 4 space-separated fields.
  std::array<std::string_view, 4> fields;
  std::size_t field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (field >= fields.size()) return std::nullopt;
      fields[field++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  if (field != fields.size()) return std::nullopt;
  if (fields[0].empty() || fields[1].empty()) return std::nullopt;
  const auto total = parse_u64(fields[2]);
  if (!total) return std::nullopt;

  PagecountsEzLine parsed;
  parsed.project = std::string(fields[0]);
  parsed.title = std::string(fields[1]);
  parsed.monthly_total = *total;

  // Daily string: comma-separated "<day>:<hour_string>" entries.
  const std::string_view daily = fields[3];
  std::size_t entry_start = 0;
  while (entry_start <= daily.size()) {
    std::size_t comma = daily.find(',', entry_start);
    if (comma == std::string_view::npos) comma = daily.size();
    const std::string_view entry = daily.substr(entry_start, comma - entry_start);
    if (const std::size_t colon = entry.find(':');
        colon != std::string_view::npos) {
      const auto day = parse_u64(entry.substr(0, colon));
      if (day && *day >= 1) {
        const auto hours = decode_hour_string(entry.substr(colon + 1));
        std::uint64_t views = 0;
        for (auto h : hours) views += h;
        parsed.daily_views.emplace_back(static_cast<std::size_t>(*day - 1),
                                        views);
      }
    }
    if (comma == daily.size()) break;
    entry_start = comma + 1;
  }
  return parsed;
}

PagecountsEzReader::PagecountsEzReader(std::size_t days,
                                       std::string project_filter)
    : days_(days), project_filter_(std::move(project_filter)) {
  if (days == 0)
    throw std::invalid_argument("PagecountsEzReader: days must be > 0");
}

void PagecountsEzReader::add_line(std::size_t month_offset_days,
                                  std::string_view line) {
  auto parsed = parse_pagecounts_ez_line(line);
  if (!parsed) {
    ++malformed_;
    return;
  }
  if (!project_filter_.empty() && parsed->project != project_filter_) return;
  auto [it, inserted] = daily_views_.try_emplace(std::move(parsed->title));
  if (inserted) it->second.assign(days_, 0.0);
  for (const auto& [day, views] : parsed->daily_views) {
    const std::size_t absolute = month_offset_days + day;
    if (absolute < days_) it->second[absolute] += static_cast<double>(views);
  }
}

void PagecountsEzReader::add_stream(std::size_t month_offset_days,
                                    std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') add_line(month_offset_days, line);
  }
}

RequestTrace PagecountsEzReader::build_trace(double mean_size_mb,
                                             double write_read_ratio,
                                             std::uint64_t seed) const {
  // Identical deterministic protocol to PagecountsAggregator::build_trace.
  std::vector<const std::pair<const std::string, std::vector<double>>*> entries;
  entries.reserve(daily_views_.size());
  // lint-contract: allow(unordered-iteration) -- gathered pointers are sorted by key below
  for (const auto& entry : daily_views_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  util::Rng root(seed);
  std::vector<FileRecord> files;
  files.reserve(entries.size());
  std::uint64_t stream = 0;
  for (const auto* entry : entries) {
    double total = 0.0;
    for (double v : entry->second) total += v;
    ++stream;
    if (total <= 0.0) continue;
    util::Rng rng = root.fork(stream);
    FileRecord file;
    file.name = entry->first;
    file.reads = entry->second;
    file.writes.resize(days_);
    for (std::size_t t = 0; t < days_; ++t)
      file.writes[t] = write_read_ratio * file.reads[t];
    file.size_gb =
        std::max(1.0, static_cast<double>(rng.poisson(mean_size_mb))) / 1024.0;
    files.push_back(std::move(file));
  }
  RequestTrace result(days_, std::move(files));
  result.validate();
  return result;
}

PagecountsAggregator::PagecountsAggregator(std::size_t days,
                                           std::string project_filter)
    : days_(days), project_filter_(std::move(project_filter)) {
  if (days == 0)
    throw std::invalid_argument("PagecountsAggregator: days must be > 0");
}

void PagecountsAggregator::add_line(std::size_t hour, std::string_view line) {
  const std::size_t day = hour / 24;
  if (day >= days_) return;
  auto parsed = parse_pagecounts_line(line);
  if (!parsed) {
    ++malformed_;
    return;
  }
  if (!project_filter_.empty() && parsed->project != project_filter_) return;
  auto [it, inserted] = daily_views_.try_emplace(std::move(parsed->title));
  if (inserted) it->second.assign(days_, 0.0);
  it->second[day] += static_cast<double>(parsed->views);
}

void PagecountsAggregator::add_stream(std::size_t hour, std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) add_line(hour, line);
  }
}

RequestTrace PagecountsAggregator::build_trace(double mean_size_mb,
                                               double write_read_ratio,
                                               std::uint64_t seed) const {
  // Sort titles for a deterministic file order independent of hash layout.
  std::vector<const std::pair<const std::string, std::vector<double>>*> entries;
  entries.reserve(daily_views_.size());
  // lint-contract: allow(unordered-iteration) -- gathered pointers are sorted by key below
  for (const auto& entry : daily_views_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  util::Rng root(seed);
  std::vector<FileRecord> files;
  files.reserve(entries.size());
  std::uint64_t stream = 0;
  for (const auto* entry : entries) {
    double total = 0.0;
    for (double v : entry->second) total += v;
    ++stream;  // keep per-title streams stable even when titles are dropped
    if (total <= 0.0) continue;
    util::Rng rng = root.fork(stream);
    FileRecord file;
    file.name = entry->first;
    file.reads = entry->second;
    file.writes.resize(days_);
    for (std::size_t t = 0; t < days_; ++t)
      file.writes[t] = write_read_ratio * file.reads[t];
    const double size_mb =
        std::max(1.0, static_cast<double>(rng.poisson(mean_size_mb)));
    file.size_gb = size_mb / 1024.0;
    files.push_back(std::move(file));
  }
  RequestTrace result(days_, std::move(files));
  result.validate();
  return result;
}

RequestTrace load_pagecounts_directory(const std::filesystem::path& dir,
                                       std::size_t days,
                                       const std::string& project_filter,
                                       double mean_size_mb,
                                       double write_read_ratio,
                                       std::uint64_t seed) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  if (paths.empty())
    throw std::runtime_error("load_pagecounts_directory: no files in " +
                             dir.string());
  std::sort(paths.begin(), paths.end());

  PagecountsAggregator aggregator(days, project_filter);
  std::size_t hour = 0;
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path.string());
    aggregator.add_stream(hour, in);
    ++hour;
  }
  return aggregator.build_trace(mean_size_mb, write_read_ratio, seed);
}

}  // namespace minicost::trace
