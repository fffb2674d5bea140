#pragma once
// Versioned JSON run reports — the machine-readable record every bench and
// CLI run leaves behind, and the input format of tools/bench_diff.py (the CI
// perf-regression gate).
//
// A report carries:
//   * the schema version (kSchemaVersion; readers reject anything else),
//   * an environment fingerprint (git SHA, CPU model, compiler, build
//     type/sanitizer, seed, MINICOST_SCALE, hardware threads) so two
//     reports are only ever compared knowingly,
//   * bench-specific scalar metrics (files/sec, pack seconds, ...),
//   * a snapshot of every obs counter and timer touched during the run,
//   * peak RSS.
//
// write_report() refuses to silently overwrite a report whose on-disk env
// fingerprint differs from the current one (different machine, flags, seed,
// or scale): the new report goes to <name>.1.json (first free index)
// instead, so a baseline can never be clobbered by an incomparable run.

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace minicost::obs {

struct EnvFingerprint {
  std::string git_sha;     ///< build-time rev-parse; "unknown" outside git
  std::string cpu;         ///< /proc/cpuinfo model name
  std::string compiler;    ///< __VERSION__
  std::string build_type;  ///< CMAKE_BUILD_TYPE
  std::string sanitize;    ///< MINICOST_SANITIZE preset ("" = none)
  std::uint64_t seed = 0;  ///< MINICOST_SEED (default 42)
  std::int64_t scale = 0;  ///< MINICOST_SCALE; 0 = unset (bench default)
  std::uint32_t threads = 0;  ///< util::hardware_threads()

  /// Comparability key: every field except git_sha (reports are compared
  /// ACROSS commits — that is the whole point of a perf gate).
  std::string comparable_key() const;
};

/// Fingerprint of the running process/build.
EnvFingerprint current_fingerprint();

/// Peak resident set size so far, in MiB.
double peak_rss_mib();

struct RunReport {
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::string name;  ///< bench/tool identifier; also the report's file stem
  EnvFingerprint env;
  /// Bench-specific scalars, serialized in insertion order. bench_diff.py
  /// infers the improvement direction from the name suffix (see its help).
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Registry::CounterSnapshot> counters;
  std::vector<Registry::TimerSnapshot> timers;
  double rss_mib = 0.0;
};

/// Snapshot of the global registry + env + RSS under `name`.
RunReport make_report(std::string name);

std::string to_json(const RunReport& report);

/// Parses a report. Throws std::runtime_error on malformed JSON or a schema
/// version other than kSchemaVersion.
RunReport report_from_json(std::string_view text);

/// Writes `report` to dir/<name>.json — unless that file already holds a
/// report with a different comparable_key(), in which case the new report is
/// written to dir/<name>.<k>.json for the first free k >= 1 (an unparseable
/// existing file is treated as a mismatch). Creates `dir` on demand and
/// returns the path written.
std::filesystem::path write_report(const RunReport& report,
                                   const std::filesystem::path& dir);

}  // namespace minicost::obs
