#pragma once
// Minimal JSON reader/writer for the obs run-report format — just enough to
// round-trip what run_report.cpp emits (objects, arrays, strings, numbers,
// booleans, null) with no external dependency.
//
// Numbers keep their raw token so integers survive exactly: a counter
// serialized as 18446744073709551615 parses back bit-for-bit via as_u64(),
// where a double round-trip would clip past 2^53. Doubles are written with
// %.17g, which round-trips IEEE 754 binary64.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace minicost::obs::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  /// Parses one JSON document (trailing garbage rejected). Throws
  /// std::runtime_error with position info on malformed input.
  static Value parse(std::string_view text);

  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const;

  /// Object member by key, or nullptr when absent (or not an object).
  const Value* find(std::string_view key) const noexcept;
  /// Object member by key; throws std::runtime_error when absent.
  const Value& at(std::string_view key) const;

  const std::vector<std::pair<std::string, Value>>& members() const;
  const std::vector<Value>& items() const;

 private:
  friend class Parser;

  Kind kind_ = Kind::kNull;
  std::string scalar_;  ///< raw number token, or decoded string value
  std::vector<std::pair<std::string, Value>> members_;  ///< kObject
  std::vector<Value> items_;                            ///< kArray
};

/// `"..."` with ", \, and control characters escaped.
std::string quote(std::string_view text);
/// Shortest %.17g rendering that round-trips a binary64.
std::string number(double value);

}  // namespace minicost::obs::json
