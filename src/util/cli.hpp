#pragma once
// Small command-line flag parser shared by the bench harnesses and examples.
// Supports --name=value, --name value, and boolean --name forms, with typed
// accessors and an auto-generated --help. The typed accessors are strict: a
// value that is not wholly a number (or a boolean word) throws
// std::invalid_argument naming the flag and the value, never a guess.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace minicost::util {

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Declares a flag and its default; must be called before parse().
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false on --help (after printing usage to stdout)
  /// or an unknown flag (after one stderr line). Positional arguments are
  /// collected in order.
  bool parse(int argc, const char* const* argv);

  /// True when the command line set the flag (even to its default).
  bool given(const std::string& name) const;

  std::string str(const std::string& name) const;
  /// A whole base-10 integer: "12abc", "abc" and "" throw.
  std::int64_t integer(const std::string& name) const;
  /// integer() that also rejects negative values (a count or a seed).
  std::size_t size(const std::string& name) const;
  /// A whole finite number: "0.5x", "nan" and "" throw.
  double real(const std::string& name) const;
  /// true|1|yes|on or false|0|no|off; any other word throws.
  bool boolean(const std::string& name) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

  std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  const Flag& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace minicost::util
