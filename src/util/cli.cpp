#include "util/cli.hpp"

#include <cmath>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace minicost::util {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  flags_[name] = Flag{default_value, help, std::nullopt};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::cerr << program_ << ": unknown flag --" << name
                << " (see --help)\n";
      return false;
    }
    if (!has_value) {
      // --flag value form, unless the next token is another flag or absent
      // (then treat as boolean true).
      if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Cli::usage() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << " (default: " << flag.default_value << ")\n      "
        << flag.help << "\n";
  }
  return out.str();
}

const Cli::Flag& Cli::find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::invalid_argument("Cli: undeclared flag --" + name);
  return it->second;
}

std::string Cli::str(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

bool Cli::given(const std::string& name) const {
  return find(name).value.has_value();
}

namespace {

/// One-line error for a flag value that does not parse as `expected`.
std::invalid_argument bad_value(const std::string& name,
                                const std::string& value,
                                const char* expected) {
  return std::invalid_argument("--" + name + " expects " + expected +
                               ", got '" + value + "'");
}

}  // namespace

std::int64_t Cli::integer(const std::string& name) const {
  const std::string v = str(name);
  std::int64_t out = 0;
  if (!parse_whole(v, out)) throw bad_value(name, v, "an integer");
  return out;
}

std::size_t Cli::size(const std::string& name) const {
  const std::string v = str(name);
  std::int64_t out = 0;
  if (!parse_whole(v, out) || out < 0)
    throw bad_value(name, v, "a non-negative integer");
  return static_cast<std::size_t>(out);
}

double Cli::real(const std::string& name) const {
  const std::string v = str(name);
  double out = 0.0;
  if (!parse_whole(v, out) || !std::isfinite(out))
    throw bad_value(name, v, "a finite number");
  return out;
}

bool Cli::boolean(const std::string& name) const {
  const std::string v = str(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw bad_value(name, v, "true | false");
}

}  // namespace minicost::util
