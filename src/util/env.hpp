#pragma once
// Environment-variable helpers for experiment scaling. The bench harnesses
// default to laptop-scale parameters; MINICOST_SCALE / MINICOST_STEPS /
// MINICOST_SEED raise them toward the paper's scale without recompiling.
// Like util::Cli's typed accessors they are strict: a set value that is not
// wholly a number throws std::invalid_argument naming the variable and the
// value, never a guess.

#include <cstddef>
#include <cstdint>
#include <string>

namespace minicost::util {

/// The whole base-10 integer value of `name`, or `fallback` if it is unset
/// or empty. "12abc", "abc", a bare sign and out-of-range values throw.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// env_int that also rejects negative values (a count or a seed).
std::size_t env_size(const std::string& name, std::size_t fallback);

/// Returns the string value of `name`, or `fallback` if unset.
std::string env_str(const std::string& name, const std::string& fallback);

/// Number of files for figure benches: MINICOST_SCALE, default `fallback`.
std::size_t bench_scale(std::size_t fallback);

/// Global experiment seed: MINICOST_SEED, default 42.
std::uint64_t bench_seed();

}  // namespace minicost::util
