// Plan-pipeline throughput: the serial shard loop vs incremental dirty-shard
// re-planning, over one .mct store.
//
// One size per run: MINICOST_SCALE files (default 100k; the CI perf gate
// runs 20k, the EXPERIMENTS.md Fig. 12 follow-up runs 1M). The store is
// split into ~16 shards (shard_files = max(4096, files/16)) and planned
// with Greedy two ways:
//   * serial      PlanDriver::run() — every shard materialized, decided,
//                 billed and merged in turn
//   * replan      one shard marked dirty, then replan() — the other shards
//                 are spliced from the cached per-shard bills
// plus a monolithic run_policy cross-check at <= 100k files (materializing
// the whole trace at 1M is exactly what the driver exists to avoid).
//
// Both bills must match bit for bit (bills_identical == 1). The gated
// headline is incremental_speedup = serial wall / replan wall, which holds
// on any core count.
//
// Output: one JSON object on stdout, mirrored to
// bench_out()/micro_plan_pipeline_raw.json; the schema-versioned run report
// for the CI perf gate goes to bench_out()/micro_plan_pipeline.json.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/greedy.hpp"
#include "core/plan_driver.hpp"
#include "sim/billing.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

using namespace minicost;

int main() {
  const std::size_t days = 62;
  const auto files = util::bench_scale(100'000);
  const std::size_t shard_files =
      std::max<std::size_t>(4096, files / 16);

  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = days;
  config.seed = util::bench_seed();
  config.grouped_file_fraction = 0.0;  // streamable

  const std::filesystem::path dir = benchx::bench_out();
  const std::filesystem::path mct = dir / "micro_plan_pipeline.mct";
  {
    store::TraceWriter writer(mct, days);
    constexpr std::size_t kChunk = 16384;
    for (std::size_t first = 0; first < files; first += kChunk) {
      const std::size_t count = std::min(kChunk, files - first);
      for (const trace::FileRecord& f :
           trace::generate_synthetic_files(config, first, count))
        writer.add_file(f.name, f.size_gb, f.reads, f.writes);
    }
    writer.finish();
  }

  const store::TraceReader reader(mct);
  const pricing::PricingPolicy prices = benchx::standard_pricing();

  core::PlanDriverOptions options;
  options.shard_files = shard_files;
  options.start_day = days > 35 ? days - 35 : 1;

  core::GreedyPolicy policy;

  core::PlanDriver driver(reader, prices, policy, options);
  const core::PlanDriverRun serial = driver.run();

  // Incremental: dirty one mid-partition shard, splice the rest.
  driver.mark_dirty(shard_files * (serial.shard_count / 2), 1);
  const core::PlanDriverRun replan = driver.replan();

  bool identical = sim::bitwise_equal(serial.report, replan.report);

  // Monolithic cross-check (loads the full trace into memory — skip at 1M).
  if (files <= 100'000) {
    core::PlanOptions mono;
    mono.start_day = options.start_day;
    const trace::RequestTrace tr = reader.materialize();
    mono.initial_tiers = core::static_initial_tiers(tr, prices, mono.start_day);
    core::GreedyPolicy fresh;
    identical = identical &&
                sim::bitwise_equal(
                    core::run_policy(tr, prices, fresh, mono).report,
                    serial.report);
  }

  const double incremental_speedup = serial.wall_seconds / replan.wall_seconds;

  const std::vector<std::pair<std::string, double>> metrics{
      {"serial_wall_seconds", serial.wall_seconds},
      {"replan_wall_seconds", replan.wall_seconds},
      {"incremental_speedup", incremental_speedup},
      {"decide_sum_seconds", serial.decision_seconds},
      {"file_decide_p50_ns", serial.file_decide_p50_ns},
      {"file_decide_p99_ns", serial.file_decide_p99_ns},
      {"bills_identical", identical ? 1.0 : 0.0},
  };

  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"bench\":\"micro_plan_pipeline\",\"files\":%zu,\"days\":%zu,"
      "\"shard_files\":%zu,\"shards\":%zu,\"serial_wall_seconds\":%.4f,"
      "\"replan_wall_seconds\":%.4f,\"incremental_speedup\":%.2f,"
      "\"decide_sum_seconds\":%.4f,\"file_decide_p50_ns\":%.1f,"
      "\"file_decide_p99_ns\":%.1f,\"bills_identical\":%s}",
      files, days, shard_files, serial.shard_count, serial.wall_seconds,
      replan.wall_seconds, incremental_speedup, serial.decision_seconds,
      serial.file_decide_p50_ns, serial.file_decide_p99_ns,
      identical ? "true" : "false");

  std::printf("%s\n", buf);
  std::ofstream(dir / "micro_plan_pipeline_raw.json") << buf << "\n";
  benchx::write_run_report("micro_plan_pipeline", metrics);

  std::filesystem::remove(mct);
  return identical ? 0 : 1;
}
