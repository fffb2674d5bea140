// minicost — the command-line face of the library.
//
//   minicost generate  --files 5000 --days 62 --out trace.csv|trace.mct
//   minicost convert   <trace.csv|trace.mct> --out <trace.mct|trace.csv>
//   minicost convert   --pagecounts <dir> --out trace.csv|trace.mct
//   minicost info      <trace.mct>
//   minicost verify    <trace.mct>
//   minicost analyze   <trace.csv|trace.mct>
//   minicost plan      <trace.csv|trace.mct> --policy optimal|greedy|hot|cold|mpc|rl
//   minicost crossover [--preset azure|s3|gcs] [--size-mb 100]
//
// Trace paths pick their format by extension: `.mct` is the store of
// store/format.hpp, anything else the CSV of trace/trace_io.hpp. A .mct is
// generated chunk by chunk and planned shard by shard (core::PlanDriver), so
// a 1M-file trace fits in a few hundred MB of RAM.

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "codec/chunk_codec.hpp"
#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/plan_driver.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "core/serve_command.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "sim/cost_model.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/analysis.hpp"
#include "trace/pagecounts_parser.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace minicost;

bool is_store(std::string_view path) { return path.ends_with(".mct"); }

/// The one trace loader: a .mct store is materialized, anything else is
/// parsed as CSV.
trace::RequestTrace load_any(const std::string& path) {
  return is_store(path) ? store::TraceReader(path).materialize()
                        : trace::load_trace(path);
}

void add_writer_flags(util::Cli& cli) {
  cli.add_flag("codec", "v1",
               "store codec (.mct out): v1 (uncompressed version 1 layout) or "
               "a v2 chunk codec: raw | delta | zstd | delta+zstd");
  cli.add_flag("files-per-chunk", "1024", "files per v2 chunk (.mct out)");
}

/// Writer options for `out`; --codec and --files-per-chunk only apply to a
/// .mct output.
store::WriterOptions writer_options(const util::Cli& cli,
                                    const std::string& out) {
  store::WriterOptions options;
  if (!is_store(out)) {
    if (cli.given("codec") || cli.given("files-per-chunk"))
      throw std::invalid_argument(
          "--codec and --files-per-chunk need a .mct --out");
    return options;
  }
  options.codec = cli.str("codec");
  if (options.codec == "v1") options.codec.clear();  // explicit v1 spelling
  const std::size_t per_chunk = cli.size("files-per-chunk");
  if (per_chunk < 1 || per_chunk > store::kMaxFilesPerChunk)
    throw std::invalid_argument("--files-per-chunk must be in [1, " +
                                std::to_string(store::kMaxFilesPerChunk) +
                                "], got " + std::to_string(per_chunk));
  options.files_per_chunk = static_cast<std::uint32_t>(per_chunk);
  return options;
}

/// The command's one positional argument; throws unless there is exactly one.
const std::string& input_path(const util::Cli& cli, const char* what) {
  if (cli.positional().size() != 1)
    throw std::invalid_argument(std::string("need one ") + what);
  return cli.positional().front();
}

/// The one trace writer, the counterpart of load_any().
void save_any(const trace::RequestTrace& tr, const std::string& path,
              const store::WriterOptions& options) {
  if (is_store(path))
    store::pack_trace(tr, path, options);
  else
    trace::save_trace(tr, path);
}

int cmd_generate(int argc, const char* const* argv) {
  util::Cli cli("minicost generate",
                "synthesize a Wikipedia-like trace: a .csv in memory with "
                "co-request groups, a .mct streamed chunk by chunk without");
  cli.add_flag("files", "5000", "number of data files");
  cli.add_flag("days", "62", "horizon in days");
  cli.add_flag("seed", "42", "generator seed");
  cli.add_flag("out", "trace.csv", "output trace (.csv or .mct)");
  cli.add_flag("integral-counts", "false",
               "round the synthetic request counts to whole requests (what "
               "real count data looks like; lets the delta codec engage)");
  add_writer_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig config;
  config.file_count = cli.size("files");
  config.days = cli.size("days");
  config.seed = cli.size("seed");
  config.integral_counts = cli.boolean("integral-counts");
  const std::string out = cli.str("out");
  const store::WriterOptions options = writer_options(cli, out);

  if (!is_store(out)) {
    const trace::RequestTrace tr = trace::generate_synthetic(config);
    trace::save_trace(tr, out);
    std::cout << "wrote " << tr.file_count() << " files x " << tr.days()
              << " days (" << tr.groups().size() << " co-request groups) to "
              << out << "\n";
    return 0;
  }
  // Co-request groups are a whole-trace construct; streaming leaves them
  // out (`generate --out x.csv` + `convert` packs a grouped store).
  config.grouped_file_fraction = 0.0;
  store::TraceWriter writer(out, config.days, options);
  constexpr std::size_t kChunk = 16384;  // files generated per batch
  for (std::size_t first = 0; first < config.file_count; first += kChunk) {
    const std::size_t count = std::min(kChunk, config.file_count - first);
    for (const trace::FileRecord& f :
         trace::generate_synthetic_files(config, first, count))
      writer.add_file(f.name, f.size_gb, f.reads, f.writes);
  }
  writer.finish();
  std::cout << "generated " << config.file_count << " files x " << config.days
            << " days into " << out << " (peak RSS "
            << util::format_double(obs::peak_rss_mib(), 1) << " MiB)\n";
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  util::Cli cli("minicost convert",
                "convert a trace between .csv and .mct, or Wikimedia "
                "pagecounts dumps to either");
  cli.add_flag("out", "trace.csv", "output trace (.csv or .mct)");
  cli.add_flag("pagecounts", "",
               "directory of Wikimedia pagecounts dump files");
  cli.add_flag("days", "62", "horizon in days (--pagecounts)");
  cli.add_flag("project", "en", "project filter (--pagecounts)");
  cli.add_flag("size-mb", "100", "Poisson mean file size, MB (--pagecounts)");
  cli.add_flag("write-ratio", "0.02", "writes per read (--pagecounts)");
  cli.add_flag("seed", "42", "size-sampling seed (--pagecounts)");
  add_writer_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  const bool from_dumps = cli.given("pagecounts");
  if (from_dumps && !cli.positional().empty())
    throw std::invalid_argument("give an input trace or --pagecounts, not both");
  for (const char* flag : {"days", "project", "size-mb", "write-ratio", "seed"})
    if (!from_dumps && cli.given(flag))
      throw std::invalid_argument(std::string("--") + flag +
                                  " only applies to --pagecounts");
  const std::string out = cli.str("out");
  const store::WriterOptions options = writer_options(cli, out);
  trace::RequestTrace tr;
  if (from_dumps) {
    const trace::PageviewAggregator dumps = trace::load_pagecounts_directory(
        cli.str("pagecounts"), cli.size("days"), cli.str("project"));
    tr = dumps.build_trace(cli.real("size-mb"), cli.real("write-ratio"),
                           cli.size("seed"));
    std::cerr << "pagecounts: skipped lines: " << dumps.malformed_lines()
              << " malformed, " << dumps.lines_past_horizon()
              << " with views past --days\n";
  } else {
    tr = load_any(input_path(cli, "input trace (.csv or .mct)"));
  }
  save_any(tr, out, options);
  std::cout << "converted " << tr.file_count() << " files x " << tr.days()
            << " days (" << tr.groups().size() << " co-request groups) to "
            << out << "\n";
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  util::Cli cli("minicost info", "describe a .mct store");
  if (!cli.parse(argc, argv)) return 1;
  const store::TraceReader reader(input_path(cli, ".mct file"));
  const store::Header& h = reader.header();
  const auto size_cell = [](std::uint64_t bytes) {
    return util::format_double(static_cast<double>(bytes) / (1024.0 * 1024.0),
                               2) +
           " MiB (" + util::format_count(bytes) + " B)";
  };
  util::Table table({"field", "value"});
  table.add_row({"format version", std::to_string(h.version)});
  if (reader.is_v2()) {
    const store::HeaderV2Ext& ext = reader.v2_ext();
    table.add_row({"codec",
                   std::string(codec::reserved_codec_name(ext.codec_id)) +
                       " (id " + std::to_string(ext.codec_id) + ")"});
    table.add_row({"chunks", util::format_count(ext.chunk_count) + " x " +
                                 util::format_count(ext.files_per_chunk) +
                                 " files"});
  } else {
    table.add_row({"codec", "v1/raw"});
  }
  table.add_row({"days", std::to_string(h.days)});
  table.add_row({"files", util::format_count(h.file_count)});
  table.add_row({"co-request groups", util::format_count(h.group_count)});
  table.add_row({"series stride", std::to_string(h.series_stride) + " B"});
  table.add_row({"frequency section", size_cell(h.freq_bytes)});
  if (reader.is_v2()) {
    table.add_row({"frequency decoded", size_cell(reader.freq_raw_bytes())});
    table.add_row(
        {"compression ratio",
         h.freq_bytes == 0
             ? "n/a"
             : util::format_double(static_cast<double>(reader.freq_raw_bytes()) /
                                       static_cast<double>(h.freq_bytes),
                                   2) +
                   "x"});
    table.add_row({"chunk table", size_cell(reader.v2_ext().chunk_table_bytes)});
  }
  table.add_row({"file table", size_cell(h.file_table_bytes)});
  table.add_row({"name blob", size_cell(h.names_bytes)});
  table.add_row({"group section", size_cell(h.groups_bytes)});
  table.add_row({"container size", size_cell(h.total_bytes)});
  std::cout << cli.positional().front() << ":\n" << table.to_string();
  return 0;
}

int cmd_verify(int argc, const char* const* argv) {
  util::Cli cli("minicost verify", "full checksum scan of a .mct store");
  if (!cli.parse(argc, argv)) return 1;
  // Opening already validates structure + metadata checksums; this pages in
  // and checks the frequency section too.
  const store::TraceReader reader(input_path(cli, ".mct file"));
  reader.verify_checksums();
  std::cout << cli.positional().front() << ": OK ("
            << util::format_count(reader.file_count()) << " files x "
            << reader.days() << " days, all checksums match)\n";
  return 0;
}

int cmd_analyze(int argc, const char* const* argv) {
  util::Cli cli("minicost analyze", "Section-3 style trace analysis");
  if (!cli.parse(argc, argv)) return 1;
  const trace::RequestTrace tr =
      load_any(input_path(cli, "trace file (.csv or .mct)"));
  std::cout << "trace: " << tr.file_count() << " files x " << tr.days()
            << " days, " << util::format_double(tr.total_size_gb(), 1)
            << " GB, " << tr.groups().size() << " co-request groups\n\n";

  const trace::VariabilityAnalysis analysis = trace::analyze_variability(tr);
  util::Table table({"std-dev bucket", "files", "share"});
  for (std::size_t b = 0; b < analysis.histogram.bucket_count(); ++b) {
    table.add_row(
        {analysis.histogram.label(b),
         util::format_count(analysis.histogram.count(b)),
         util::format_double(100.0 * analysis.histogram.share(b), 2) + "%"});
  }
  std::cout << table.to_string();
  return 0;
}

/// How `--policy rl` builds its agent: a checkpoint when given, otherwise a
/// fresh deterministic initialization from --agent-seed (untrained, but it
/// runs the full featurize/forward pipeline, which is what the RL smokes
/// exercise).
struct RlCliOptions {
  std::string checkpoint;
  std::uint64_t seed = 1234;
};

using PolicyPtr = std::unique_ptr<core::TieringPolicy>;

struct PolicyEntry {
  std::string_view name;
  PolicyPtr (*make)(const RlCliOptions&);
};

/// The one list of --policy names and how each is built.
constexpr PolicyEntry kPolicies[] = {
    {"hot", [](const RlCliOptions&) { return core::make_hot_policy(); }},
    {"cold", [](const RlCliOptions&) { return core::make_cold_policy(); }},
    {"greedy",
     [](const RlCliOptions&) -> PolicyPtr {
       return std::make_unique<core::GreedyPolicy>();
     }},
    {"optimal",
     [](const RlCliOptions&) -> PolicyPtr {
       return std::make_unique<core::OptimalPolicy>();
     }},
    {"mpc",
     [](const RlCliOptions&) -> PolicyPtr {
       return std::make_unique<core::ForecastMpcPolicy>();
     }},
    {"rl",
     [](const RlCliOptions& rl) {
       core::RlPolicyOptions options;
       options.seed = rl.seed;
       options.checkpoint = rl.checkpoint;
       return core::make_rl_policy(options);
     }},
};

/// Looks a policy name up without constructing it (an rl policy builds a
/// whole agent). Throws std::invalid_argument listing the valid names.
const PolicyEntry& policy_entry(std::string_view name) {
  std::string names;
  for (const PolicyEntry& entry : kPolicies) {
    if (entry.name == name) return entry;
    names += (names.empty() ? "" : " | ") + std::string(entry.name);
  }
  throw std::invalid_argument("unknown policy '" + std::string(name) +
                              "' (expected " + names + ")");
}

PolicyPtr make_policy(std::string_view name, const RlCliOptions& rl) {
  return policy_entry(name).make(rl);
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// The result rows of every plan mode in one fixed CSV schema. Costs print
/// with %.17g so two byte-identical bills render as string-identical rows —
/// the serve smokes compare them textually.
constexpr const char* kRowHeader =
    "event,policy,shard_files,shards,replanned,wall_seconds,"
    "decide_sum_seconds,decide_ns_per_file_day,total_cost,"
    "tier_changes";

std::string format_row(const std::string& event, std::size_t shard_files,
                       const core::PlanDriverRun& run) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s,%s,%zu,%zu,%zu,%.6f,%.6f,%.1f,%.17g,%" PRIu64,
                event.c_str(), run.policy_name.c_str(), shard_files,
                run.shard_count, run.replanned_shards, run.wall_seconds,
                run.decision_seconds, run.decide_ns_per_file_day,
                run.report.grand_total().total(),
                run.report.tier_changes());
  return buf;
}

/// The one byte-identity check: prints `what: byte-identical|MISMATCH` on
/// `out`.
bool check_identical(const char* what, const sim::BillingReport& a,
                     const sim::BillingReport& b, std::ostream& out) {
  const bool identical = sim::bitwise_equal(a, b);
  out << what << ": " << (identical ? "byte-identical" : "MISMATCH") << "\n";
  return identical;
}

/// The one bill printer: the Cs/Cr/Cw/Cc table plus a timing line.
void print_run(const core::PlanDriverRun& run, std::size_t days,
               const pricing::PricingPolicy& prices) {
  const auto& total = run.report.grand_total();
  util::Table bill({"component", "amount"});
  bill.add_row({"storage (Cs)", util::format_money(total.storage)});
  bill.add_row({"reads (Cr)", util::format_money(total.read)});
  bill.add_row({"writes (Cw)", util::format_money(total.write)});
  bill.add_row({"tier changes (Cc)", util::format_money(total.change)});
  bill.add_row({"total", util::format_money(total.total())});
  std::cout << run.policy_name << " over days " << run.start_day << ".."
            << days << " (" << prices.name() << ", " << run.shard_count
            << " shards, " << run.replanned_shards << " planned):\n"
            << bill.to_string() << "tier changes: "
            << util::format_count(run.report.tier_changes())
            << ", wall: " << util::format_double(run.wall_seconds, 2)
            << "s, decide sum: "
            << util::format_double(run.decision_seconds, 2) << "s";
  if (run.decide_ns_per_file_day > 0.0)
    std::cout << ", decide per file-day: "
              << util::format_double(run.decide_ns_per_file_day, 0) << " ns";
  std::cout << ", peak RSS: " << util::format_double(obs::peak_rss_mib(), 1)
            << " MiB\n";
}

/// The one `minicost_plan` run report, with the same metrics for .csv and
/// .mct input. bills_identical appears when --compare ran. Its path goes to
/// stderr, so `--format csv` stdout stays a clean CSV.
void write_plan_report(const core::PlanDriverRun& run,
                       std::optional<bool> identical) {
  obs::RunReport report = obs::make_report("minicost_plan");
  report.metrics = {
      {"plan_wall_seconds", run.wall_seconds},
      {"decide_sum_seconds", run.decision_seconds},
      {"decide_ns_per_file_day", run.decide_ns_per_file_day},
      {"shards", static_cast<double>(run.shard_count)},
      {"total_cost", run.report.grand_total().total()},
  };
  if (identical)
    report.metrics.emplace_back("bills_identical", *identical ? 1.0 : 0.0);
  std::cerr << "[report] "
            << obs::write_report(report,
                                 util::env_str("MINICOST_OUT", "bench_out"))
                   .string()
            << "\n";
}

/// Resident serve loop: stdin commands drive a warm PlanDriver per policy
/// (the policy, e.g. a deployed A3C agent, and its per-shard bills persist).
/// One CSV row per plan/replan; `sweep` runs every name in `names`.
int serve_loop(const store::TraceReader& reader,
               const pricing::PricingPolicy& prices,
               const core::PlanDriverOptions& options,
               const std::vector<std::string>& names, const RlCliOptions& rl) {
  std::map<std::string, PolicyPtr> policies;
  std::map<std::string, std::unique_ptr<core::PlanDriver>> drivers;
  std::string current = names.front();

  const auto driver_for = [&](const std::string& name) -> core::PlanDriver& {
    auto it = drivers.find(name);
    if (it != drivers.end()) return *it->second;
    PolicyPtr policy = make_policy(name, rl);
    auto driver =
        std::make_unique<core::PlanDriver>(reader, prices, *policy, options);
    core::PlanDriver& ref = *driver;
    policies.emplace(name, std::move(policy));
    drivers.emplace(name, std::move(driver));
    return ref;
  };

  std::cout << kRowHeader << std::endl;
  std::string line;
  while (std::getline(std::cin, line)) {
    // The grammar lives in core::parse_serve_command (pure, never throws,
    // fuzzed by fuzz/fuzz_serve.cpp); malformed input gets one error row
    // and the loop keeps serving.
    const core::ServeCommand cmd = core::parse_serve_command(line);
    using Kind = core::ServeCommand::Kind;
    if (cmd.kind == Kind::kNone) continue;
    if (cmd.kind == Kind::kQuit) break;
    if (cmd.kind == Kind::kError) {
      std::cout << "error," << cmd.error << std::endl;
      continue;
    }
    try {
      switch (cmd.kind) {
        case Kind::kPlan:
        case Kind::kReplan: {
          core::PlanDriver& driver = driver_for(current);
          const bool plan = cmd.kind == Kind::kPlan;
          std::cout << format_row(plan ? "plan" : "replan",
                                  options.shard_files,
                                  plan ? driver.run() : driver.replan())
                    << std::endl;
          break;
        }
        case Kind::kTouch:
          // Dirty marks apply to every warm driver so a later `policy X` +
          // `replan` re-plans the touched shards under that policy too.
          for (auto& [name, driver] : drivers)
            driver->mark_dirty(cmd.first, cmd.count);
          if (drivers.empty())
            std::cout << "error,no warm driver to touch (run plan first)"
                      << std::endl;
          else
            std::cout << "touched," << cmd.first << "," << cmd.count
                      << std::endl;
          break;
        case Kind::kPolicy:
          policy_entry(cmd.name);  // throws on an unknown name
          current = cmd.name;
          std::cout << "policy," << cmd.name << std::endl;
          break;
        case Kind::kSweep:
          for (const std::string& name : names)
            std::cout << format_row("sweep", options.shard_files,
                                    driver_for(name).run())
                      << std::endl;
          break;
        case Kind::kStats: {
          const core::PlanDriver& driver = driver_for(current);
          std::cout << "stats,policy=" << current
                    << ",shards=" << driver.shard_count()
                    << ",dirty=" << driver.dirty_shard_count()
                    << ",warm_policies=" << drivers.size() << std::endl;
          // A LIVE registry snapshot each call — counters registered after
          // driver construction (e.g. core.plan_driver.* on the first plan)
          // show up as soon as they exist.
          for (const auto& snapshot : obs::Registry::global().counters())
            std::cout << "counter," << snapshot.name << "," << snapshot.value
                      << std::endl;
          break;
        }
        case Kind::kHelp:
          std::cout << "commands: plan | replan | touch FIRST COUNT | "
                       "policy NAME | sweep | stats | quit"
                    << std::endl;
          break;
        default:
          break;
      }
    } catch (const std::exception& error) {
      std::cout << "error," << error.what() << std::endl;
    }
  }
  return 0;
}

/// --compare: bills the monolithic path over reader.materialize() and
/// byte-checks the sharded bill against it, printing the verdict on `out`.
/// Any throw (the materialize is the big allocation) counts as a mismatch,
/// so the run report is still written.
bool compare_monolithic(const store::TraceReader& reader,
                        const pricing::PricingPolicy& prices,
                        const std::string& policy_name,
                        const RlCliOptions& rl,
                        const core::PlanDriverRun& sharded,
                        util::ThreadPool& pool, std::ostream& out) {
  try {
    const trace::RequestTrace tr = reader.materialize();
    core::PlanOptions mono;
    mono.start_day = sharded.start_day;
    mono.pool = &pool;
    mono.initial_tiers = core::static_initial_tiers(tr, prices, mono.start_day);
    const PolicyPtr policy = make_policy(policy_name, rl);
    return check_identical("monolithic comparison", sharded.report,
                           core::run_policy(tr, prices, *policy, mono).report,
                           out);
  } catch (const std::exception& error) {
    std::cerr << "plan: monolithic comparison failed: " << error.what()
              << "\n";
    return false;
  }
}

/// One planned (policy, shard size) cell of a one-shot run or a sweep.
struct PlanCell {
  std::size_t shard_files = 0;
  core::PlanDriverRun run;
};

/// Plans a CSV trace in memory through run_policy, as a single shard.
PlanCell plan_csv(const trace::RequestTrace& tr,
                  const pricing::PricingPolicy& prices,
                  core::TieringPolicy& policy, std::size_t start_day,
                  util::ThreadPool& pool) {
  core::PlanOptions options;
  options.start_day = start_day;
  options.initial_tiers = core::static_initial_tiers(tr, prices, start_day);
  options.pool = &pool;
  const util::Stopwatch watch;
  core::PlanResult result = core::run_policy(tr, prices, policy, options);
  PlanCell cell;
  cell.run.wall_seconds = watch.seconds();
  cell.run.policy_name = std::move(result.policy_name);
  cell.run.report = std::move(result.report);
  cell.run.decision_seconds = result.decision_seconds;
  cell.run.decide_ns_per_file_day = result.decide_ns_per_file_day;
  cell.run.shard_count = cell.run.replanned_shards = 1;
  cell.run.start_day = start_day;
  return cell;
}

/// Prints one-shot or sweep cells per --format and writes --out.
void print_cells(const std::deque<PlanCell>& cells, const util::Cli& cli,
                 std::size_t days, const pricing::PricingPolicy& prices) {
  std::ostringstream rows;
  rows << kRowHeader << "\n";
  util::Table table({"policy", "shard_files", "shards", "wall s",
                     "decide-sum s", "decide ns/file-day", "total"});
  for (const auto& [shard_files, run] : cells) {
    rows << format_row("plan", shard_files, run) << "\n";
    table.add_row({run.policy_name, util::format_count(shard_files),
                   std::to_string(run.shard_count),
                   util::format_double(run.wall_seconds, 2),
                   util::format_double(run.decision_seconds, 2),
                   util::format_double(run.decide_ns_per_file_day, 0),
                   util::format_money(run.report.grand_total().total())});
  }
  if (cli.str("format") == "csv")
    std::cout << rows.str();
  else if (cells.size() > 1)
    std::cout << "sweep over " << cli.positional().front() << " ("
              << prices.name() << "):\n"
              << table.to_string();
  else
    print_run(cells.front().run, days, prices);
  if (!cli.str("out").empty()) {
    std::ofstream(cli.str("out")) << rows.str();
    std::cerr << "[rows] " << cli.str("out") << "\n";
  }
}

int cmd_plan(int argc, const char* const* argv) {
  util::Cli cli("minicost plan",
                "bill tiering policies over a trace (.csv in-memory, .mct "
                "through the sharded PlanDriver)");
  cli.add_flag("policy", "optimal",
               "hot | cold | greedy | optimal | mpc | rl (comma list sweeps, "
               ".mct)");
  cli.add_flag("agent", "",
               "A3C checkpoint for --policy rl (empty = fresh "
               "deterministic init from --agent-seed)");
  cli.add_flag("agent-seed", "1234", "init seed for --policy rl");
  cli.add_flag("start", "0", "first billed day (default: last 35 days)");
  cli.add_flag("preset", "azure", "price preset: azure | s3 | gcs");
  cli.add_flag("format", "table", "table | csv");
  cli.add_flag("shard-files", "65536", "files per shard (0 = one shard; .mct)");
  cli.add_flag("serve", "false",
               "resident mode: read plan/replan/touch/policy/sweep commands "
               "from stdin (.mct)");
  cli.add_flag("replan", "",
               "FIRST:COUNT — plan, touch that file range, incrementally "
               "replan, verify byte-identical (.mct)");
  cli.add_flag("sweep-shard-files", "",
               "comma list of shard sizes to sweep (.mct)");
  cli.add_flag("out", "", "also write the CSV rows to this file (.mct)");
  cli.add_flag("compare", "false",
               "also bill the monolithic in-memory path and check the "
               "sharded bill is byte-identical (.mct)");
  if (!cli.parse(argc, argv)) return 1;
  const std::string& input = input_path(cli, "trace file (.csv or .mct)");

  // Read and check every flag before any work, so a malformed value is one
  // stderr line and never a half-printed run.
  const pricing::PricingPolicy prices =
      pricing::PricingPolicy::preset(cli.str("preset"));
  const std::vector<std::string> policy_names = split_list(cli.str("policy"));
  if (policy_names.empty())
    throw std::invalid_argument("--policy list is empty");
  for (const std::string& name : policy_names) policy_entry(name);
  const RlCliOptions rl{cli.str("agent"), cli.size("agent-seed")};
  const std::size_t start = cli.size("start");
  const auto start_day = [start](std::size_t days) {
    return start > 0 ? start : (days > 35 ? days - 35 : 1);
  };
  if (cli.str("format") != "table" && cli.str("format") != "csv")
    throw std::invalid_argument("--format expects table | csv, got '" +
                                cli.str("format") + "'");
  util::ThreadPool pool;  // hardware-sized: run_policy plans a block per thread

  if (!is_store(input)) {
    for (const char* flag : {"serve", "replan", "sweep-shard-files",
                             "shard-files", "out", "compare"})
      if (cli.given(flag))
        throw std::invalid_argument(std::string("--") + flag +
                                    " needs a .mct store; `minicost convert` "
                                    "it first");
    if (policy_names.size() > 1)
      throw std::invalid_argument(
          "a --policy list needs a .mct store; `minicost convert` it first");
    const trace::RequestTrace tr = trace::load_trace(input);
    const PolicyPtr policy = make_policy(policy_names.front(), rl);
    const std::deque<PlanCell> cells{
        plan_csv(tr, prices, *policy, start_day(tr.days()), pool)};
    print_cells(cells, cli, tr.days(), prices);
    write_plan_report(cells.front().run, std::nullopt);
    return 0;
  }

  core::PlanDriverOptions base;
  base.shard_files = cli.size("shard-files");
  base.pool = &pool;
  const bool serve = cli.boolean("serve");
  const bool compare = cli.boolean("compare");
  const std::string replan = cli.str("replan");
  std::size_t first = 0, count = 0;
  if (!replan.empty() && !core::parse_shard_range(replan, &first, &count))
    throw std::invalid_argument("--replan expects FIRST:COUNT, got '" +
                                replan + "'");
  std::vector<std::size_t> shard_sizes;
  if (!core::parse_size_list(cli.str("sweep-shard-files"), &shard_sizes))
    throw std::invalid_argument(
        "--sweep-shard-files expects a comma list of non-negative integers, "
        "got '" + cli.str("sweep-shard-files") + "'");
  if (serve + !replan.empty() + compare + !shard_sizes.empty() > 1)
    throw std::invalid_argument(
        "--serve, --replan, --compare and --sweep-shard-files exclude each "
        "other");
  if ((!replan.empty() || compare) && policy_names.size() > 1)
    throw std::invalid_argument("--replan and --compare take one policy");
  if ((serve || !replan.empty()) && (cli.given("out") || cli.given("format")))
    throw std::invalid_argument(
        "--out and --format do not apply to --serve or --replan");

  const store::TraceReader reader(input);
  base.start_day = start_day(reader.days());
  if (serve) return serve_loop(reader, prices, base, policy_names, rl);

  // --replan FIRST:COUNT — full plan, touch, incremental replan, and verify
  // the replanned bill is byte-identical to the full plan's.
  if (!replan.empty()) {
    const PolicyPtr policy = make_policy(policy_names.front(), rl);
    core::PlanDriver driver(reader, prices, *policy, base);
    const core::PlanDriverRun full = driver.run();
    driver.mark_dirty(first, count);
    const core::PlanDriverRun incremental = driver.replan();
    std::cout << kRowHeader << "\n"
              << format_row("plan", base.shard_files, full) << "\n"
              << format_row("replan", base.shard_files, incremental) << "\n";
    return check_identical("replan bill vs full plan", full.report,
                           incremental.report, std::cout)
               ? 0
               : 1;
  }

  // One-shot or sweep: enumerate policy x shard-size cells.
  if (shard_sizes.empty()) shard_sizes.push_back(base.shard_files);
  std::deque<PlanCell> cells;
  for (const std::string& name : policy_names) {
    const PolicyPtr policy = make_policy(name, rl);
    for (const std::size_t shard_files : shard_sizes) {
      core::PlanDriverOptions options = base;
      options.shard_files = shard_files;
      cells.push_back(
          {shard_files, core::PlanDriver(reader, prices, *policy, options).run()});
    }
  }
  print_cells(cells, cli, reader.days(), prices);
  std::optional<bool> identical;
  if (compare)  // stderr under --format csv keeps stdout one CSV document
    identical = compare_monolithic(
        reader, prices, policy_names.front(), rl, cells.front().run, pool,
        cli.str("format") == "csv" ? std::cerr : std::cout);
  write_plan_report(cells.back().run, identical);
  return identical.value_or(true) ? 0 : 1;
}

int cmd_crossover(int argc, const char* const* argv) {
  util::Cli cli("minicost crossover",
                "tier break-even request rates, price sheet and daily cost "
                "curves");
  cli.add_flag("preset", "azure", "price preset: azure | s3 | gcs");
  cli.add_flag("size-mb", "100", "file size, MB");
  if (!cli.parse(argc, argv)) return 1;
  const pricing::PricingPolicy prices =
      pricing::PricingPolicy::preset(cli.str("preset"));
  const std::string size_mb = cli.str("size-mb");
  const double gb = cli.real("size-mb") / 1024.0;
  if (gb < 0.0)
    throw std::invalid_argument("--size-mb expects a size >= 0, got '" +
                                size_mb + "'");
  util::Table table({"boundary", "reads/day"});
  using pricing::StorageTier;
  for (const auto& [label, from, to] :
       {std::tuple{"hot vs cool", StorageTier::kHot, StorageTier::kCool},
        std::tuple{"cool vs archive", StorageTier::kCool,
                   StorageTier::kArchive}})
    table.add_row({label, util::format_double(sim::tier_crossover_reads(
                                                  prices, from, to, gb, 0.02),
                                              3)});
  std::cout << prices.name() << " @ " << size_mb << " MB:\n"
            << table.to_string() << "\n";

  util::Table sheet({"tier", "storage $/GB-mo", "read $/10k ops",
                     "write $/10k ops", "read $/GB", "write $/GB"});
  for (const StorageTier t : pricing::all_tiers()) {
    const pricing::TierPrice& p = prices.tier(t);
    sheet.add_row({std::string(pricing::tier_name(t)),
                   util::format_double(p.storage_gb_month, 5),
                   util::format_double(p.read_per_10k_ops, 4),
                   util::format_double(p.write_per_10k_ops, 4),
                   util::format_double(p.read_per_gb, 4),
                   util::format_double(p.write_per_gb, 4)});
  }
  std::cout << sheet.to_string() << "\ntier change: "
            << util::format_double(prices.tier_change_per_gb(), 5)
            << " $/GB\n\n";

  // Daily cost of one file per tier as its read rate grows, writes at 2%
  // of reads plus a floor.
  util::Table curves({"reads/day", "hot $/day", "cool $/day", "archive $/day",
                      "best tier"});
  for (const double reads : {0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
                             50.0, 200.0, 1000.0}) {
    const double writes = 0.02 * reads + 0.05;
    std::vector<std::string> row{util::format_double(reads, 2)};
    for (const StorageTier t : pricing::all_tiers())
      row.push_back(util::format_double(
          sim::file_day_cost_no_change(prices, t, reads, writes, gb).total(),
          7));
    row.push_back(std::string(pricing::tier_name(
        sim::best_static_tier(prices, reads, writes, gb))));
    curves.add_row(std::move(row));
  }
  std::cout << "daily cost for a " << size_mb << " MB file:\n"
            << curves.to_string();
  return 0;
}

struct Command {
  std::string_view name;
  int (*run)(int, const char* const*);
  const char* help;
};

constexpr Command kCommands[] = {
    {"generate", cmd_generate, "synthesize a Wikipedia-like trace (.csv or .mct)"},
    {"convert", cmd_convert,
     "convert a trace between .csv and .mct, or pagecounts dumps to either"},
    {"info", cmd_info, "describe a .mct store"},
    {"verify", cmd_verify, "full checksum scan of a .mct store"},
    {"analyze", cmd_analyze, "variability analysis of a trace (paper Fig. 2)"},
    {"plan", cmd_plan, "bill tiering policies over a trace"},
    {"crossover", cmd_crossover,
     "tier break-even rates, price sheet and cost curves for a preset"},
};

void usage() {
  std::printf("minicost <command> [flags]\n\ncommands:\n");
  for (const Command& command : kCommands)
    std::printf("  %-10s %s\n", std::string(command.name).c_str(),
                command.help);
  std::printf("\nrun `minicost <command> --help` for per-command flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc < 2 ? "" : argv[1];
  for (const Command& command : kCommands) {
    if (command.name != name) continue;
    // Each command re-parses from its own argv slice (argv[1] becomes the
    // program name). A malformed input of any kind is one stderr line.
    try {
      return command.run(argc - 1, argv + 1);
    } catch (const std::exception& error) {
      std::cerr << "minicost " << name << ": " << error.what() << "\n";
      return 1;
    }
  }
  usage();
  return name == "--help" || name == "-h" ? 0 : 1;
}
