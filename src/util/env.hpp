#pragma once
// Environment-variable helpers for experiment scaling. The bench harnesses
// default to laptop-scale parameters; MINICOST_SCALE / MINICOST_STEPS /
// MINICOST_SEED raise them toward the paper's scale without recompiling.

#include <cstdint>
#include <string>

namespace minicost::util {

/// Returns the integer value of `name`, or `fallback` if unset/unparseable.
std::int64_t env_int(const std::string& name, std::int64_t fallback) noexcept;

/// Returns the string value of `name`, or `fallback` if unset.
std::string env_str(const std::string& name, const std::string& fallback);

/// Number of files for figure benches: MINICOST_SCALE, default `fallback`.
std::int64_t bench_scale(std::int64_t fallback) noexcept;

/// Global experiment seed: MINICOST_SEED, default 42.
std::uint64_t bench_seed() noexcept;

}  // namespace minicost::util
