#include "util/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/parse.hpp"

namespace minicost::util {
namespace {

// The value of `name`, or nullptr when it is unset or empty.
const char* env_value(const std::string& name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; nothing calls setenv
  const char* value = std::getenv(name.c_str());
  return value == nullptr || *value == '\0' ? nullptr : value;
}

// One-line error for a variable that does not parse as `expected`, worded
// like util::Cli's error for a malformed flag.
std::invalid_argument bad_value(const std::string& name, const char* value,
                                const char* expected) {
  return std::invalid_argument(name + " expects " + expected + ", got '" +
                               value + "'");
}

}  // namespace

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* value = env_value(name);
  if (value == nullptr) return fallback;
  std::int64_t out = 0;
  if (!parse_whole(value, out)) throw bad_value(name, value, "an integer");
  return out;
}

std::size_t env_size(const std::string& name, std::size_t fallback) {
  const char* value = env_value(name);
  if (value == nullptr) return fallback;
  std::int64_t out = 0;
  if (!parse_whole(value, out) || out < 0)
    throw bad_value(name, value, "a non-negative integer");
  return static_cast<std::size_t>(out);
}

std::string env_str(const std::string& name, const std::string& fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; nothing calls setenv
  const char* value = std::getenv(name.c_str());
  return value == nullptr ? fallback : std::string(value);
}

std::size_t bench_scale(std::size_t fallback) {
  return env_size("MINICOST_SCALE", fallback);
}

std::uint64_t bench_seed() { return env_size("MINICOST_SEED", 42); }

}  // namespace minicost::util
