#pragma once
// Minimal CSV writer/reader used by the bench harnesses to dump the series
// behind each reproduced figure, and by the trace module to persist traces.

#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace minicost::util {

/// Streaming CSV writer. Fields containing commas, quotes, or newlines are
/// quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens (and truncates) the file, creating parent directories as needed.
  /// Throws std::runtime_error if the file cannot be opened.
  explicit CsvWriter(const std::filesystem::path& path);

  /// Writes one row; values are escaped as needed.
  void row(const std::vector<std::string>& fields);

  /// Header then any mix of rows.
  void header(const std::vector<std::string>& names) { row(names); }

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  static std::string escape(std::string_view field);

  std::filesystem::path path_;
  std::ofstream out_;
};

/// Parses a single CSV line into fields (RFC 4180 quoting). Multi-line
/// quoted fields are not supported (the library never writes them).
std::vector<std::string> split_csv_line(std::string_view line);

/// Reads an entire CSV file into rows of fields. Throws on open failure.
std::vector<std::vector<std::string>> read_csv(const std::filesystem::path& path);

}  // namespace minicost::util
