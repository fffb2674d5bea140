#include "trace/pagecounts_parser.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "util/rng.hpp"

namespace minicost::trace {
namespace {

using std::chrono::sys_days;

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

/// What a dump file's name says: its grammar and the time it covers.
struct DumpName {
  bool monthly = false;     // a pagecounts-ez month, else a classic hour
  sys_days first_day;       // the hour's date, or the month's first day
  unsigned month_days = 0;  // monthly files only
  std::int64_t slot = 0;    // hours, or months, since the epoch
};

DumpName parse_dump_name(std::string_view name) {
  using namespace std::chrono;
  if (name.ends_with(".gz") || name.ends_with(".bz2"))
    throw std::invalid_argument(std::string(name) +
                                ": compressed dump file; decompress it first");
  constexpr std::string_view kPrefix = "pagecounts-";
  const std::string_view rest =
      name.starts_with(kPrefix) ? name.substr(kPrefix.size()) : "";
  // Every fixed-width number field; a non-digit reads as out of range.
  const auto number = [&](std::size_t pos, std::size_t len) {
    return static_cast<int>(parse_u64(rest.substr(pos, len)).value_or(99999));
  };
  DumpName file;
  if (rest.size() == 15 && rest[8] == '-') {  // YYYYMMDD-HHMMSS
    const year_month_day date{year{number(0, 4)},
                              month{static_cast<unsigned>(number(4, 2))},
                              day{static_cast<unsigned>(number(6, 2))}};
    const int hour = number(9, 2);
    if (date.ok() && hour < 24 && number(11, 2) < 60 && number(13, 2) < 60) {
      file.first_day = sys_days{date};
      file.slot = std::int64_t{file.first_day.time_since_epoch().count()} * 24 +
                  hour;
      return file;
    }
  }
  if (rest.size() >= 7 && rest[4] == '-' &&
      (rest.size() == 7 || rest[7] < '0' || rest[7] > '9')) {  // YYYY-MM...
    const year_month month_of{year{number(0, 4)},
                              month{static_cast<unsigned>(number(5, 2))}};
    if (month_of.ok()) {
      file.monthly = true;
      file.first_day = sys_days{month_of / 1};
      file.month_days =
          static_cast<unsigned>(year_month_day_last{month_of / last}.day());
      file.slot = std::int64_t{int(month_of.year())} * 12 +
                  static_cast<unsigned>(month_of.month()) - 1;
      return file;
    }
  }
  throw std::invalid_argument(
      std::string(name) +
      ": not a dump file name (pagecounts-YYYYMMDD-HHMMSS or "
      "pagecounts-YYYY-MM...)");
}

/// Sums one day's hour string, "B12G3X1" = 12 + 3 + 1 views: each letter
/// A-X is followed by its count; an empty string is no views. nullopt on
/// any other text and on overflow.
std::optional<std::uint64_t> decode_hour_string(std::string_view hours) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < hours.size();) {
    if (hours[i] < 'A' || hours[i] > 'X') return std::nullopt;
    std::size_t j = ++i;
    while (j < hours.size() && hours[j] >= '0' && hours[j] <= '9') ++j;
    const auto count = parse_u64(hours.substr(i, j - i));
    if (!count || total + *count < total) return std::nullopt;
    total += *count;
    i = j;
  }
  return total;
}

/// One parsed line of either grammar.
struct DumpLine {
  std::string_view project, title;
  /// (day within the file, views) pairs, in line order.
  std::vector<std::pair<std::size_t, std::uint64_t>> views;
};

/// Parses "<project> <title> <count> <views>" in `file`'s grammar into
/// `out`. False if the line is malformed: not exactly four single-space
/// separated fields, an empty project or title, or a count that does not
/// parse. An ez line is malformed if any of its day entries is: a day
/// outside the month, or an hour string decode_hour_string() rejects.
bool parse_dump_line(std::string_view line, const DumpName& file,
                     DumpLine& out) {
  // Titles never contain spaces in the dump (they are percent/underscore
  // encoded).
  std::array<std::string_view, 4> fields;
  std::size_t field = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (field >= fields.size()) return false;  // too many fields
      fields[field++] = line.substr(start, i - start);
      start = i + 1;
    }
  }
  if (field != fields.size() || fields[0].empty() || fields[1].empty())
    return false;
  const auto count = parse_u64(fields[2]);
  if (!count) return false;
  out.project = fields[0];
  out.title = fields[1];
  out.views.clear();
  if (!file.monthly) {  // "<views> <bytes>"
    if (!parse_u64(fields[3])) return false;
    out.views.emplace_back(0, *count);
    return true;
  }
  // "<monthly_total> <day>:<hours>[,<day>:<hours>...]"
  if (out.project.ends_with(".z")) out.project.remove_suffix(2);
  for (std::string_view daily = fields[3];;) {
    const std::size_t comma = std::min(daily.find(','), daily.size());
    const std::string_view entry = daily.substr(0, comma);
    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos) return false;
    const auto day = parse_u64(entry.substr(0, colon));
    const auto views = decode_hour_string(entry.substr(colon + 1));
    if (!day || *day < 1 || *day > file.month_days || !views) return false;
    out.views.emplace_back(static_cast<std::size_t>(*day - 1), *views);
    if (comma == daily.size()) return true;
    daily.remove_prefix(comma + 1);
  }
}

}  // namespace

PageviewAggregator::PageviewAggregator(std::size_t days, std::string project,
                                       sys_days day0)
    : days_(days), project_(std::move(project)), day0_(day0) {
  if (days == 0)
    throw std::invalid_argument("PageviewAggregator: days must be > 0");
  // The lines' ez suffix is stripped too, so "en.z" names the same
  // project as "en".
  if (project_.ends_with(".z")) project_.resize(project_.size() - 2);
}

void PageviewAggregator::add_file(std::string_view name, std::istream& in) {
  const DumpName file = parse_dump_name(name);
  const std::string label(name);
  if (file.first_day < day0_)
    throw std::invalid_argument(label + ": dated before day 0");
  if (!covered_.emplace(file.monthly, file.slot).second)
    throw std::invalid_argument(label + ": a second file for the same " +
                                (file.monthly ? "month" : "hour"));
  const auto first_day =
      static_cast<std::size_t>((file.first_day - day0_).count());

  DumpLine parsed;
  std::uint64_t parsed_lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!parse_dump_line(line, file, parsed)) {
      ++malformed_;
      continue;
    }
    ++parsed_lines;
    if (!project_.empty() && parsed.project != project_) continue;
    ++project_lines_;
    std::vector<double>* series = nullptr;
    bool past_horizon = false;
    for (const auto& [day, views] : parsed.views) {
      const std::size_t absolute = first_day + day;
      if (absolute >= days_) {
        past_horizon = true;
        continue;
      }
      if (series == nullptr) {
        auto [it, inserted] =
            daily_views_.try_emplace(std::string(parsed.title));
        if (inserted) it->second.assign(days_, 0.0);
        series = &it->second;
      }
      (*series)[absolute] += static_cast<double>(views);
    }
    if (past_horizon) ++past_horizon_;
  }
  if (parsed_lines == 0)
    throw std::invalid_argument(label + ": no line parses as a " +
                                (file.monthly ? "pagecounts-ez" : "classic") +
                                " dump line");
}

RequestTrace PageviewAggregator::build_trace(double mean_size_mb,
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

PageviewAggregator load_pagecounts_directory(const std::filesystem::path& dir,
                                             std::size_t days,
                                             const std::string& project) {
  std::vector<std::filesystem::directory_entry> entries(
      std::filesystem::directory_iterator(dir), {});
  std::sort(entries.begin(), entries.end());
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : entries) {
    // A dump tree kept as one subdirectory per month must not convert
    // only its top level without a word.
    if (!entry.is_regular_file())
      throw std::runtime_error("load_pagecounts_directory: " +
                               entry.path().string() +
                               " is not a regular file (subdirectories are "
                               "not read; give one directory of dump files)");
    paths.push_back(entry.path());
  }
  if (paths.empty())
    throw std::runtime_error("load_pagecounts_directory: no files in " +
                             dir.string());

  sys_days day0 = sys_days::max();
  for (const auto& path : paths)
    day0 = std::min(day0, parse_dump_name(path.filename().string()).first_day);
  PageviewAggregator aggregator(days, project, day0);
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path.string());
    aggregator.add_file(path.filename().string(), in);
  }
  if (aggregator.project_lines() == 0)
    throw std::runtime_error("load_pagecounts_directory: no line in " +
                             dir.string() + " is for project '" + project +
                             "'");
  return aggregator;
}

}  // namespace minicost::trace
