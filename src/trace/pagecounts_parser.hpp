#pragma once
// The reader for the Wikimedia page-view dumps the paper's trace comes from
// (https://dumps.wikimedia.org/other/pagecounts-ez/). It turns a directory
// of dump files into a RequestTrace (`minicost convert --pagecounts`); the
// shipped experiments use the synthetic generator instead.
//
// A file's name gives its line grammar and the time its views fall on:
//  * classic hourly files `pagecounts-YYYYMMDD-HHMMSS`, one hour each, with
//    lines "<project> <title> <views> <bytes>";
//  * pagecounts-ez monthly files `pagecounts-YYYY-MM...`, one month each,
//    with lines "<project> <title> <monthly_total> <daily_string>". The
//    daily string joins "<day>:<hours>" entries with commas (days 1-based
//    in the month); the hours are letter/value pairs, A = hour 0 ...
//    X = hour 23: "en.z Main_Page 314 1:A5B7,2:C9".
// The ez files write a Wikipedia project with a ".z" suffix, so the project
// "en" keeps English Wikipedia in both grammars. Blank lines and lines that
// start with '#' are skipped; every other line that does not parse is
// counted as malformed and skipped.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <istream>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace minicost::trace {

/// Accumulates dump files of either grammar into per-title daily views.
class PageviewAggregator {
 public:
  /// `days` is the horizon from `day0`; views after it are dropped and the
  /// lines that carried them counted. `project` keeps only that project's
  /// lines (empty keeps all); its ez ".z" suffix is dropped as each ez
  /// line's is, so "en.z" and "en" both keep English Wikipedia. Throws
  /// std::invalid_argument if days == 0.
  PageviewAggregator(std::size_t days, std::string project,
                     std::chrono::sys_days day0);

  /// Reads the dump file called `name` (a file name, not a path). Throws
  /// std::invalid_argument if the name matches neither pattern (compressed
  /// `.gz`/`.bz2` files included), names a time before day0 or an hour or
  /// month an earlier file already covered, or if none of its lines parses.
  void add_file(std::string_view name, std::istream& in);

  std::uint64_t malformed_lines() const noexcept { return malformed_; }
  std::uint64_t lines_past_horizon() const noexcept { return past_horizon_; }
  /// Parsed lines the project filter kept.
  std::uint64_t project_lines() const noexcept { return project_lines_; }

  /// Builds the trace: titles in sorted order, each with its own RNG stream
  /// forked from `seed`; sizes are drawn Poisson(mean_size_mb) per title
  /// (the paper's protocol — the dump has no sizes), writes are
  /// write_read_ratio * reads. Titles with zero total views are dropped.
  RequestTrace build_trace(double mean_size_mb, double write_read_ratio,
                           std::uint64_t seed) const;

 private:
  std::size_t days_;
  std::string project_;
  std::chrono::sys_days day0_;
  std::uint64_t malformed_ = 0;
  std::uint64_t past_horizon_ = 0;
  std::uint64_t project_lines_ = 0;
  std::set<std::pair<bool, std::int64_t>> covered_;  // (monthly, hour or month)
  std::unordered_map<std::string, std::vector<double>> daily_views_;
};

/// Reads every file of `dir` into one aggregator whose day 0 is the
/// earliest date any file name gives. Throws std::runtime_error naming the
/// first entry, in name order, that is not a regular file (a subdirectory,
/// say), if the directory has no files, or if no line is for `project`;
/// and add_file()'s errors.
PageviewAggregator load_pagecounts_directory(const std::filesystem::path& dir,
                                             std::size_t days,
                                             const std::string& project);

}  // namespace minicost::trace
