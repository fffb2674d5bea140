// Out-of-core evaluation walkthrough: synthesize a Wikipedia-scale workload
// straight into a .mct container (never holding it in RAM), then bill a
// tiering policy over it shard by shard, and show that the shard-streamed
// bill matches the monolithic in-memory bill bit for bit while peak RSS
// tracks the shard size, not the trace size.
//
//   ./outofcore_eval --files 200000 --shard-files 16384
//
// The README's 1M-file run is the same binary with --files 1000000; it
// packs a ~1 GB container and evaluates it in a few hundred MB of RAM.

#include <sys/resource.h>

#include <filesystem>
#include <iostream>

#include "core/greedy.hpp"
#include "core/plan_driver.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"

using namespace minicost;

namespace {

double peak_rss_mib() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("outofcore_eval",
                "shard-streamed billing over an out-of-core trace store");
  cli.add_flag("files", "100000", "number of synthetic files");
  cli.add_flag("days", "62", "horizon in days");
  cli.add_flag("shard-files", "16384", "files per evaluation shard");
  cli.add_flag("out", "outofcore_demo.mct", "container path (reused if present)");
  cli.add_flag("compare", "false",
               "also run the monolithic path (needs RAM for the whole trace)");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig config;
  config.file_count = static_cast<std::size_t>(cli.integer("files"));
  config.days = static_cast<std::size_t>(cli.integer("days"));
  config.grouped_file_fraction = 0.0;  // streamable chunk generation

  // 1. Pack: stream the workload into the container chunk by chunk. RAM use
  //    stays at one chunk of FileRecords regardless of --files.
  const std::filesystem::path path = cli.str("out");
  if (!std::filesystem::exists(path)) {
    store::TraceWriter writer(path, config.days);
    constexpr std::size_t kChunk = 16384;
    for (std::size_t first = 0; first < config.file_count; first += kChunk) {
      const std::size_t count = std::min(kChunk, config.file_count - first);
      for (const trace::FileRecord& f :
           trace::generate_synthetic_files(config, first, count))
        writer.add_file(f.name, f.size_gb, f.reads, f.writes);
    }
    writer.finish();
    std::cout << "packed " << config.file_count << " files into "
              << path.string() << " (peak RSS so far " << peak_rss_mib()
              << " MiB)\n";
  }

  // 2. Evaluate shard-streamed: mmap the container and bill the policy one
  //    shard of files at a time, merging exact per-shard reports.
  const store::TraceReader reader(path);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  core::GreedyPolicy policy;
  core::PlanDriverOptions options;
  options.shard_files = static_cast<std::size_t>(cli.integer("shard-files"));
  options.start_day = reader.days() > 35 ? reader.days() - 35 : 1;
  const core::PlanDriverRun sharded =
      core::PlanDriver(reader, prices, policy, options).run();
  std::cout << "sharded   (" << sharded.shard_count << " shards): total $"
            << sharded.report.grand_total().total() << ", peak RSS "
            << peak_rss_mib() << " MiB\n";

  // 3. Optional cross-check against the monolithic in-memory path.
  if (cli.boolean("compare")) {
    const trace::RequestTrace tr = reader.materialize();
    core::PlanOptions mono;
    mono.start_day = options.start_day;
    mono.initial_tiers = core::static_initial_tiers(tr, prices, mono.start_day);
    const core::PlanResult reference =
        core::run_policy(tr, prices, policy, mono);
    const bool identical = sharded.report.grand_total().total() ==
                           reference.report.grand_total().total();
    std::cout << "monolithic: total $"
              << reference.report.grand_total().total() << " -> "
              << (identical ? "byte-identical" : "MISMATCH") << "\n";
    return identical ? 0 : 1;
  }
  return 0;
}
