#include "util/env.hpp"

#include <cstdlib>

namespace minicost::util {

std::int64_t env_int(const std::string& name, std::int64_t fallback) noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; nothing calls setenv
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  return end == value ? fallback : parsed;
}

std::string env_str(const std::string& name, const std::string& fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only getenv; nothing calls setenv
  const char* value = std::getenv(name.c_str());
  return value == nullptr ? fallback : std::string(value);
}

std::int64_t bench_scale(std::int64_t fallback) noexcept {
  return env_int("MINICOST_SCALE", fallback);
}

std::uint64_t bench_seed() noexcept {
  return static_cast<std::uint64_t>(env_int("MINICOST_SEED", 42));
}

}  // namespace minicost::util
