#include "util/csv.hpp"

#include <stdexcept>
#include <system_error>

namespace minicost::util {

CsvWriter::CsvWriter(const std::filesystem::path& path) : path_(path) {
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  out_.open(path);
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path.string());
}

std::string CsvWriter::escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string quoted;
  quoted.reserve(field.size() + 2);
  quoted.push_back('"');
  for (char c : field) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(fields[i]);
  }
  out_ << '\n';
}

std::vector<std::string> split_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::vector<std::vector<std::string>> read_csv(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv: cannot open " + path.string());
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(split_csv_line(line));
  }
  return rows;
}

}  // namespace minicost::util
