// Trace I/O throughput: the CSV container vs the .mct out-of-core store,
// and shard-streamed vs monolithic evaluation on top of each.
//
// Per size (10k and 100k files by default; MINICOST_SCALE > 100000 adds an
// extra, e.g. MINICOST_SCALE=1000000 for the README's 1M-file run):
//   * pack: streaming-generate the workload into a .mct container
//   * csv_load: trace_io CSV parse (only measured up to 20k files — the
//     text container is quadratically painful, which is rather the point)
//   * container bytes: the binary .mct vs the raw CSV text for the same
//     trace (mct_mib / csv_mib / the compression-style ratio)
//   * mct_open_scan: mmap open + full checksum scan of every series byte
//   * materialize: shard-at-a-time copy-out of the whole store
//   * eval monolithic vs sharded: Greedy over the last 35 days, and a check
//     that the two bills match bit for bit
//   * codec dimension (first size only, integral-counts workload): for each
//     v2 chunk codec this build carries — raw, delta, and the zstd pair when
//     MINICOST_WITH_ZSTD — pack the same trace into a v2 container and
//     report its size, the compression ratio against the v1 container,
//     chunk-decode materialize throughput, and whether the sharded bill
//     over the v2 store is bit-identical to the v1 monolithic bill.
//
// Output: one JSON object on stdout, mirrored to
// bench_out()/micro_trace_io_raw.json; the schema-versioned run report for
// the CI perf gate goes to bench_out()/micro_trace_io.json.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codec/chunk_codec.hpp"
#include "common.hpp"
#include "core/greedy.hpp"
#include "core/plan_driver.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace minicost;

struct Row {
  std::size_t files = 0;
  double pack_seconds = 0.0;
  double csv_save_seconds = -1.0;  ///< < 0: not measured at this size
  double csv_load_seconds = -1.0;
  double mct_mib = 0.0;
  double csv_mib = -1.0;  ///< < 0: not measured at this size
  double open_scan_seconds = 0.0;
  double scan_gb = 0.0;
  double materialize_serial_seconds = 0.0;
  double eval_mono_seconds = 0.0;
  double eval_shard_seconds = 0.0;
  std::size_t shard_files = 0;
  bool identical = false;
};

Row run_size(std::size_t files, std::size_t days,
             const std::filesystem::path& dir) {
  Row row;
  row.files = files;
  row.shard_files = 16384;

  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = days;
  config.seed = util::bench_seed();
  config.grouped_file_fraction = 0.0;  // streamable

  const std::filesystem::path mct = dir / "micro_trace_io.mct";
  {
    util::Stopwatch watch;
    store::TraceWriter writer(mct, days);
    constexpr std::size_t kChunk = 16384;
    for (std::size_t first = 0; first < files; first += kChunk) {
      const std::size_t count = std::min(kChunk, files - first);
      for (const trace::FileRecord& f :
           trace::generate_synthetic_files(config, first, count))
        writer.add_file(f.name, f.size_gb, f.reads, f.writes);
    }
    writer.finish();
    row.pack_seconds = watch.seconds();
  }

  if (files <= 20'000) {
    const std::filesystem::path csv = dir / "micro_trace_io.csv";
    const trace::RequestTrace tr = store::TraceReader(mct).materialize();
    util::Stopwatch save;
    trace::save_trace(tr, csv);
    row.csv_save_seconds = save.seconds();
    util::Stopwatch load;
    const trace::RequestTrace back = trace::load_trace(csv);
    row.csv_load_seconds = load.seconds();
    row.csv_mib = static_cast<double>(std::filesystem::file_size(csv)) /
                  (1024.0 * 1024.0);
    std::filesystem::remove(csv);
  }
  row.mct_mib =
      static_cast<double>(std::filesystem::file_size(mct)) / (1024.0 * 1024.0);

  {
    util::Stopwatch watch;
    const store::TraceReader reader(mct);
    reader.verify_checksums();  // pages in and checksums every series byte
    row.open_scan_seconds = watch.seconds();
    row.scan_gb = static_cast<double>(reader.total_bytes()) / 1e9;
  }

  const store::TraceReader reader(mct);

  // Shard-at-a-time copy-out of the whole store, releasing the pages after
  // each shard as the planning driver does.
  {
    util::Stopwatch watch;
    for (std::size_t first = 0; first < files; first += row.shard_files) {
      const std::size_t count = std::min(row.shard_files, files - first);
      const trace::RequestTrace shard = reader.materialize_shard(first, count);
      reader.release_frequency_range(first, count);
    }
    row.materialize_serial_seconds = watch.seconds();
  }

  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const std::size_t start = days > 35 ? days - 35 : 1;
  double mono_total = 0.0, shard_total = 0.0;
  {
    util::Stopwatch watch;
    const trace::RequestTrace tr = reader.materialize();
    core::GreedyPolicy policy;
    core::PlanOptions options;
    options.start_day = start;
    options.initial_tiers = core::static_initial_tiers(tr, prices, start);
    mono_total =
        core::run_policy(tr, prices, policy, options).report.grand_total().total();
    row.eval_mono_seconds = watch.seconds();
  }
  {
    util::Stopwatch watch;
    core::GreedyPolicy policy;
    core::PlanDriverOptions options;
    options.shard_files = row.shard_files;
    options.start_day = start;
    shard_total = core::PlanDriver(reader, prices, policy, options).run()
                      .report.grand_total()
                      .total();
    row.eval_shard_seconds = watch.seconds();
  }
  row.identical = mono_total == shard_total;

  std::filesystem::remove(mct);
  return row;
}

struct CodecRow {
  std::string name;            ///< "v1" or a v2 codec name
  double pack_seconds = 0.0;
  double mct_mib = 0.0;
  double ratio_vs_v1 = 1.0;    ///< v1 container bytes / this container bytes
  double materialize_seconds = 0.0;
  double materialize_gb_per_sec = 0.0;  ///< decoded bytes per second
  bool identical = false;      ///< sharded bill == v1 monolithic bill, bitwise
};

/// The codec dimension: same integral-counts workload (whole requests, the
/// data shape the delta codec exists for), one container per codec, all
/// billed against the v1 monolithic reference.
std::vector<CodecRow> run_codecs(std::size_t files, std::size_t days,
                                 const std::filesystem::path& dir) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = days;
  config.seed = util::bench_seed();
  config.grouped_file_fraction = 0.0;  // streamable
  config.integral_counts = true;

  constexpr std::size_t kGenChunk = 16384;
  constexpr std::size_t kShardFiles = 2048;
  const auto pack = [&](const std::filesystem::path& path,
                        const store::WriterOptions& options) {
    store::TraceWriter writer(path, days, options);
    for (std::size_t first = 0; first < files; first += kGenChunk) {
      const std::size_t count = std::min(kGenChunk, files - first);
      for (const trace::FileRecord& f :
           trace::generate_synthetic_files(config, first, count))
        writer.add_file(f.name, f.size_gb, f.reads, f.writes);
    }
    writer.finish();
  };

  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const std::size_t start = days > 35 ? days - 35 : 1;
  const auto mib = [](const std::filesystem::path& p) {
    return static_cast<double>(std::filesystem::file_size(p)) /
           (1024.0 * 1024.0);
  };

  std::vector<CodecRow> rows;
  const std::filesystem::path mct = dir / "micro_trace_io_codec.mct";

  // v1 reference: container size and the monolithic bill every v2 container
  // must reproduce bit for bit.
  double v1_mib = 0.0;
  double v1_total = 0.0;
  {
    CodecRow row;
    row.name = "v1";
    util::Stopwatch watch;
    pack(mct, {});
    row.pack_seconds = watch.seconds();
    row.mct_mib = v1_mib = mib(mct);
    const store::TraceReader reader(mct);
    {
      util::Stopwatch mat;
      for (std::size_t first = 0; first < files; first += kShardFiles) {
        const std::size_t count = std::min(kShardFiles, files - first);
        (void)reader.materialize_shard(first, count);
        reader.release_frequency_range(first, count);
      }
      row.materialize_seconds = mat.seconds();
      row.materialize_gb_per_sec =
          static_cast<double>(reader.freq_raw_bytes()) / 1e9 /
          row.materialize_seconds;
    }
    const trace::RequestTrace tr = reader.materialize();
    core::GreedyPolicy policy;
    core::PlanOptions options;
    options.start_day = start;
    options.initial_tiers = core::static_initial_tiers(tr, prices, start);
    v1_total =
        core::run_policy(tr, prices, policy, options).report.grand_total().total();
    row.identical = true;
    rows.push_back(std::move(row));
  }

  std::vector<std::string> codecs{"raw", "delta"};
  if (codec::zstd_available()) {
    codecs.emplace_back("zstd");
    codecs.emplace_back("delta+zstd");
  }
  for (const std::string& name : codecs) {
    CodecRow row;
    row.name = name;
    util::Stopwatch watch;
    pack(mct, store::WriterOptions{name, 1024});
    row.pack_seconds = watch.seconds();
    row.mct_mib = mib(mct);
    row.ratio_vs_v1 = v1_mib / row.mct_mib;
    const store::TraceReader reader(mct);
    {
      util::Stopwatch mat;
      for (std::size_t first = 0; first < files; first += kShardFiles) {
        const std::size_t count = std::min(kShardFiles, files - first);
        (void)reader.materialize_shard(first, count);
      }
      row.materialize_seconds = mat.seconds();
      row.materialize_gb_per_sec =
          static_cast<double>(reader.freq_raw_bytes()) / 1e9 /
          row.materialize_seconds;
    }
    core::GreedyPolicy policy;
    core::PlanDriverOptions options;
    options.shard_files = kShardFiles;
    options.start_day = start;
    const double total = core::PlanDriver(reader, prices, policy, options).run()
                             .report.grand_total()
                             .total();
    row.identical = total == v1_total;
    rows.push_back(std::move(row));
  }
  std::filesystem::remove(mct);
  return rows;
}

}  // namespace

int main() {
  const std::size_t days = 62;
  std::vector<std::size_t> sizes{10'000, 100'000};
  const auto scale = static_cast<std::size_t>(util::bench_scale(0));
  if (scale > sizes.back()) sizes.push_back(scale);  // e.g. the 1M run

  const std::filesystem::path dir = benchx::bench_out();
  std::vector<std::pair<std::string, double>> metrics;
  std::ostringstream json;
  json << "{\"bench\":\"micro_trace_io\",\"days\":" << days << ",\"results\":[";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Row row = run_size(sizes[i], days, dir);
    const std::string prefix = "n" + std::to_string(row.files) + ".";
    metrics.emplace_back(prefix + "pack_seconds", row.pack_seconds);
    metrics.emplace_back(prefix + "mct_open_scan_seconds",
                         row.open_scan_seconds);
    metrics.emplace_back(prefix + "mct_scan_gb_per_sec",
                         row.scan_gb / row.open_scan_seconds);
    metrics.emplace_back(prefix + "mct_mib", row.mct_mib);
    if (row.csv_mib >= 0.0)
      metrics.emplace_back(prefix + "csv_mib", row.csv_mib);
    metrics.emplace_back(prefix + "materialize_serial_seconds",
                         row.materialize_serial_seconds);
    metrics.emplace_back(prefix + "eval_monolithic_seconds",
                         row.eval_mono_seconds);
    metrics.emplace_back(prefix + "eval_sharded_seconds",
                         row.eval_shard_seconds);
    metrics.emplace_back(prefix + "bills_identical",
                         row.identical ? 1.0 : 0.0);
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"files\":%zu,\"pack_seconds\":%.3f,\"csv_save_seconds\":%.3f,"
        "\"csv_load_seconds\":%.3f,\"mct_mib\":%.2f,\"csv_mib\":%.2f,"
        "\"mct_csv_ratio\":%.3f,\"mct_open_scan_seconds\":%.3f,"
        "\"mct_scan_gb_per_sec\":%.2f,\"materialize_serial_seconds\":%.3f,"
        "\"eval_monolithic_seconds\":%.3f,"
        "\"eval_sharded_seconds\":%.3f,\"shard_files\":%zu,"
        "\"bills_identical\":%s}",
        i == 0 ? "" : ",", row.files, row.pack_seconds, row.csv_save_seconds,
        row.csv_load_seconds, row.mct_mib, row.csv_mib,
        row.csv_mib > 0.0 ? row.mct_mib / row.csv_mib : -1.0,
        row.open_scan_seconds, row.scan_gb / row.open_scan_seconds,
        row.materialize_serial_seconds, row.eval_mono_seconds, row.eval_shard_seconds, row.shard_files,
        row.identical ? "true" : "false");
    json << buf;
  }
  json << "],\"codecs\":[";
  const std::vector<CodecRow> codec_rows = run_codecs(sizes.front(), days, dir);
  for (std::size_t i = 0; i < codec_rows.size(); ++i) {
    const CodecRow& row = codec_rows[i];
    const std::string prefix = "codec." + row.name + ".";
    metrics.emplace_back(prefix + "pack_seconds", row.pack_seconds);
    metrics.emplace_back(prefix + "mct_mib", row.mct_mib);
    metrics.emplace_back(prefix + "ratio_vs_v1", row.ratio_vs_v1);
    metrics.emplace_back(prefix + "materialize_seconds",
                         row.materialize_seconds);
    metrics.emplace_back(prefix + "materialize_gb_per_sec",
                         row.materialize_gb_per_sec);
    metrics.emplace_back(prefix + "bills_identical", row.identical ? 1.0 : 0.0);
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"codec\":\"%s\",\"pack_seconds\":%.3f,\"mct_mib\":%.2f,"
        "\"ratio_vs_v1\":%.3f,\"materialize_seconds\":%.3f,"
        "\"materialize_gb_per_sec\":%.2f,\"bills_identical\":%s}",
        i == 0 ? "" : ",", row.name.c_str(), row.pack_seconds, row.mct_mib,
        row.ratio_vs_v1, row.materialize_seconds, row.materialize_gb_per_sec,
        row.identical ? "true" : "false");
    json << buf;
  }
  json << "]}";

  std::printf("%s\n", json.str().c_str());
  std::ofstream(dir / "micro_trace_io_raw.json") << json.str() << "\n";
  benchx::write_run_report("micro_trace_io", metrics);
  return 0;
}
