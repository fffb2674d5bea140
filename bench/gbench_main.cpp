// Drop-in replacement for benchmark::benchmark_main that also leaves the
// machine-readable run report behind: after the benchmarks run, each
// benchmark's timings, the process's obs counters/timers, env fingerprint,
// and peak RSS are written to MINICOST_OUT/<binary-name>.json (see
// src/obs/run_report.hpp), where the CI perf gate (tools/bench_diff.py)
// picks them up.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common.hpp"

namespace {

// The console reporter that also keeps, per benchmark run,
// `<name>.real_time_ns`, `<name>.cpu_time_ns` (per iteration) and, when the
// benchmark counts items, `<name>.items_per_sec` for the run report. The
// suffixes are the ones tools/bench_diff.py reads a direction from.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  RecordingReporter() : ConsoleReporter(OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.report_big_o || run.report_rms) continue;
      const std::string name = run.benchmark_name();
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      metrics.emplace_back(name + ".real_time_ns",
                           run.GetAdjustedRealTime() * to_ns);
      metrics.emplace_back(name + ".cpu_time_ns",
                           run.GetAdjustedCPUTime() * to_ns);
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end())
        metrics.emplace_back(name + ".items_per_sec", it->second.value);
    }
  }

  std::vector<std::pair<std::string, double>> metrics;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string name =
      argc > 0 ? std::filesystem::path(argv[0]).stem().string() : "gbench";
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  minicost::benchx::write_run_report(name, reporter.metrics);
  return 0;
}
