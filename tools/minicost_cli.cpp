// minicost — the command-line face of the library.
//
//   minicost generate --files 5000 --days 62 --out trace.csv
//   minicost convert  --pagecounts <dir> --out trace.csv
//   minicost analyze  <trace.csv>
//   minicost plan     <trace.csv> --policy optimal|greedy|hot|cold|mpc
//   minicost crossover [--preset azure|s3|gcs]
//
// Everything operates on the CSV trace container of trace/trace_io.hpp, so
// pipelines can mix synthetic and real (pagecounts) workloads.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

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
#include "trace/analysis.hpp"
#include "trace/pagecounts_parser.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using namespace minicost;

int cmd_generate(int argc, const char* const* argv) {
  util::Cli cli("minicost generate", "synthesize a Wikipedia-like trace");
  cli.add_flag("files", "5000", "number of data files");
  cli.add_flag("days", "62", "horizon in days");
  cli.add_flag("seed", "42", "generator seed");
  cli.add_flag("out", "trace.csv", "output trace file");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig config;
  config.file_count = static_cast<std::size_t>(cli.integer("files"));
  config.days = static_cast<std::size_t>(cli.integer("days"));
  config.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  trace::save_trace(tr, cli.str("out"));
  std::cout << "wrote " << tr.file_count() << " files x " << tr.days()
            << " days (" << tr.groups().size() << " co-request groups) to "
            << cli.str("out") << "\n";
  return 0;
}

int cmd_convert(int argc, const char* const* argv) {
  util::Cli cli("minicost convert", "convert Wikimedia dumps to a trace");
  cli.add_flag("pagecounts", "", "directory of classic hourly dump files");
  cli.add_flag("days", "62", "horizon in days");
  cli.add_flag("project", "en", "project filter");
  cli.add_flag("size-mb", "100", "Poisson mean file size, MB");
  cli.add_flag("write-ratio", "0.02", "writes per read");
  cli.add_flag("seed", "42", "size-sampling seed");
  cli.add_flag("out", "trace.csv", "output trace file");
  if (!cli.parse(argc, argv)) return 1;

  const std::string dir = cli.str("pagecounts");
  if (dir.empty()) {
    std::cerr << "convert: --pagecounts <dir> is required\n";
    return 1;
  }
  const trace::RequestTrace tr = trace::load_pagecounts_directory(
      dir, static_cast<std::size_t>(cli.integer("days")), cli.str("project"),
      cli.real("size-mb"), cli.real("write-ratio"),
      static_cast<std::uint64_t>(cli.integer("seed")));
  trace::save_trace(tr, cli.str("out"));
  std::cout << "converted " << tr.file_count() << " titles to "
            << cli.str("out") << "\n";
  return 0;
}

int cmd_analyze(int argc, const char* const* argv) {
  util::Cli cli("minicost analyze", "Section-3 style trace analysis");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::cerr << "analyze: need a trace file\n";
    return 1;
  }
  const trace::RequestTrace tr = trace::load_trace(cli.positional().front());
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

std::unique_ptr<core::TieringPolicy> make_policy(const std::string& which,
                                                 const RlCliOptions& rl = {}) {
  if (which == "hot") return core::make_hot_policy();
  if (which == "cold") return core::make_cold_policy();
  if (which == "greedy") return std::make_unique<core::GreedyPolicy>();
  if (which == "mpc") return std::make_unique<core::ForecastMpcPolicy>();
  if (which == "optimal") return std::make_unique<core::OptimalPolicy>();
  if (which == "rl") {
    core::RlPolicyOptions options;
    options.seed = rl.seed;
    options.checkpoint = rl.checkpoint;
    return core::make_rl_policy(options);
  }
  return nullptr;
}

/// Name check without constructing (an rl policy builds a whole agent).
bool known_policy(const std::string& which) {
  return which == "hot" || which == "cold" || which == "greedy" ||
         which == "mpc" || which == "optimal" || which == "rl";
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// The driver-mode result rows (serve, sweep, --replan) in one fixed CSV
/// schema. Costs print with %.17g so two byte-identical bills render as
/// string-identical rows — the serve smoke in CI compares them textually.
constexpr const char* kRowHeader =
    "event,policy,shard_files,shards,replanned,wall_seconds,"
    "decide_sum_seconds,file_decide_p50_ns,file_decide_p99_ns,total_cost,"
    "tier_changes";

std::string format_row(const std::string& event, std::size_t shard_files,
                       const core::PlanDriverRun& run) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s,%s,%zu,%zu,%zu,%.6f,%.6f,%.1f,%.1f,%.17g,%" PRIu64,
                event.c_str(), run.policy_name.c_str(), shard_files,
                run.shard_count, run.replanned_shards, run.wall_seconds,
                run.decision_seconds, run.file_decide_p50_ns,
                run.file_decide_p99_ns, run.report.grand_total().total(),
                run.report.tier_changes());
  return buf;
}

bool bills_identical(const sim::BillingReport& a, const sim::BillingReport& b) {
  if (a.file_count() != b.file_count() || a.days() != b.days()) return false;
  const auto& ta = a.grand_total();
  const auto& tb = b.grand_total();
  if (std::memcmp(&ta, &tb, sizeof ta) != 0) return false;
  if (a.tier_changes() != b.tier_changes()) return false;
  for (std::size_t f = 0; f < a.file_count(); ++f)
    if (a.file_total(f) != b.file_total(f)) return false;
  return true;
}

/// Pretty bill + timing summary for one driver run (table format).
void print_run(const core::PlanDriverRun& run, const store::TraceReader& reader,
               const pricing::PricingPolicy& prices) {
  const auto& total = run.report.grand_total();
  util::Table bill({"component", "amount"});
  bill.add_row({"storage (Cs)", util::format_money(total.storage)});
  bill.add_row({"reads (Cr)", util::format_money(total.read)});
  bill.add_row({"writes (Cw)", util::format_money(total.write)});
  bill.add_row({"tier changes (Cc)", util::format_money(total.change)});
  bill.add_row({"total", util::format_money(total.total())});
  std::cout << run.policy_name << " over days " << run.start_day << ".."
            << reader.days() << " (" << prices.name() << ", "
            << run.shard_count << " shards, " << run.replanned_shards
            << " planned):\n"
            << bill.to_string() << "tier changes: "
            << util::format_count(run.report.tier_changes())
            << ", wall: " << util::format_double(run.wall_seconds, 2)
            << "s, decide sum: "
            << util::format_double(run.decision_seconds, 2)
            << "s, per-file decide p50/p99: "
            << util::format_double(run.file_decide_p50_ns, 0) << "/"
            << util::format_double(run.file_decide_p99_ns, 0) << " ns\n";
}

struct DriverConfig {
  core::PlanDriverOptions options;
  std::vector<std::string> policies;  ///< sweep set; front() = current
  RlCliOptions rl;                    ///< agent source for --policy rl
};

/// Resident serve loop: line commands on stdin drive a warm PlanDriver per
/// policy (the policy object — e.g. a deployed A3C agent — and its per-shard
/// report cache persist across commands). Emits one CSV row per plan/replan.
int serve_loop(const store::TraceReader& reader,
               const pricing::PricingPolicy& prices, DriverConfig config) {
  std::map<std::string, std::unique_ptr<core::TieringPolicy>> policies;
  std::map<std::string, std::unique_ptr<core::PlanDriver>> drivers;
  std::string current = config.policies.front();

  const auto driver_for =
      [&](const std::string& name) -> core::PlanDriver* {
    auto it = drivers.find(name);
    if (it != drivers.end()) return it->second.get();
    std::unique_ptr<core::TieringPolicy> policy = make_policy(name, config.rl);
    if (policy == nullptr) return nullptr;
    auto driver = std::make_unique<core::PlanDriver>(reader, prices, *policy,
                                                     config.options);
    core::PlanDriver* raw = driver.get();
    policies.emplace(name, std::move(policy));
    drivers.emplace(name, std::move(driver));
    return raw;
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
          core::PlanDriver* driver = driver_for(current);
          if (driver == nullptr) {
            std::cout << "error,unknown policy " << current << std::endl;
            break;
          }
          const core::PlanDriverRun run =
              cmd.kind == Kind::kPlan ? driver->run() : driver->replan();
          std::cout << format_row(
                           cmd.kind == Kind::kPlan ? "plan" : "replan",
                           config.options.shard_files, run)
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
          if (!known_policy(cmd.name)) {
            std::cout << "error,unknown policy " << cmd.name << std::endl;
            break;
          }
          current = cmd.name;
          std::cout << "policy," << cmd.name << std::endl;
          break;
        case Kind::kSweep:
          for (const std::string& name : config.policies) {
            core::PlanDriver* driver = driver_for(name);
            if (driver == nullptr) continue;
            std::cout << format_row("sweep", config.options.shard_files,
                                    driver->run())
                      << std::endl;
          }
          break;
        case Kind::kStats: {
          core::PlanDriver* driver = driver_for(current);
          std::cout << "stats,policy=" << current
                    << ",shards=" << (driver ? driver->shard_count() : 0)
                    << ",dirty=" << (driver ? driver->dirty_shard_count() : 0)
                    << ",warm_policies=" << drivers.size() << std::endl;
          // A LIVE registry snapshot each call — counters registered after
          // driver construction (e.g. core.shard_eval.* on the first plan)
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

/// Plans a .mct store through the PlanDriver: one-shot, sweep (multiple
/// policies and/or shard sizes), --replan self-check, or --serve loop.
int cmd_plan_store(const util::Cli& cli) {
  const store::TraceReader reader(cli.positional().front());
  const std::string preset = cli.str("preset");
  const pricing::PricingPolicy prices =
      preset == "s3"    ? pricing::PricingPolicy::s3_like()
      : preset == "gcs" ? pricing::PricingPolicy::gcs_like()
                        : pricing::PricingPolicy::azure_2020();

  DriverConfig config;
  config.policies = split_list(cli.str("policy"));
  if (config.policies.empty()) {
    std::cerr << "plan: --policy list is empty\n";
    return 1;
  }
  for (const std::string& name : config.policies)
    if (!known_policy(name)) {
      std::cerr << "plan: unknown policy '" << name << "'\n";
      return 1;
    }
  // Validate before the size_t casts: a negative flag value would silently
  // wrap into an absurd shard size.
  if (cli.integer("shard-files") < 0) {
    std::cerr << "plan: --shard-files must be >= 0 (0 = one shard), got "
              << cli.integer("shard-files") << "\n";
    return 1;
  }
  if (cli.integer("agent-seed") < 0) {
    std::cerr << "plan: --agent-seed must be >= 0, got "
              << cli.integer("agent-seed") << "\n";
    return 1;
  }
  config.rl.checkpoint = cli.str("agent");
  config.rl.seed = static_cast<std::uint64_t>(cli.integer("agent-seed"));
  config.options.shard_files =
      static_cast<std::size_t>(cli.integer("shard-files"));
  config.options.start_day =
      cli.integer("start") > 0
          ? static_cast<std::size_t>(cli.integer("start"))
          : (reader.days() > 35 ? reader.days() - 35 : 1);

  if (cli.boolean("serve")) return serve_loop(reader, prices, config);

  const std::string format = cli.str("format");
  std::vector<std::size_t> shard_sizes;
  if (!core::parse_size_list(cli.str("sweep-shard-files"), &shard_sizes)) {
    std::cerr << "plan: --sweep-shard-files wants a comma list of "
                 "nonnegative integers, got '"
              << cli.str("sweep-shard-files") << "'\n";
    return 1;
  }
  if (shard_sizes.empty()) shard_sizes.push_back(config.options.shard_files);

  // --replan FIRST:COUNT — full plan, touch, incremental replan, and verify
  // the replanned bill is byte-identical to the full plan's.
  if (!cli.str("replan").empty()) {
    std::size_t first = 0, count = 0;
    if (!core::parse_shard_range(cli.str("replan"), &first, &count)) {
      std::cerr << "plan: --replan expects FIRST:COUNT\n";
      return 1;
    }
    std::unique_ptr<core::TieringPolicy> policy =
        make_policy(config.policies.front(), config.rl);
    core::PlanDriver driver(reader, prices, *policy, config.options);
    const core::PlanDriverRun full = driver.run();
    driver.mark_dirty(first, count);
    const core::PlanDriverRun incremental = driver.replan();
    std::cout << kRowHeader << "\n"
              << format_row("plan", config.options.shard_files, full) << "\n"
              << format_row("replan", config.options.shard_files, incremental)
              << "\n";
    const bool identical =
        bills_identical(full.report, incremental.report);
    std::cout << "replan bill vs full plan: "
              << (identical ? "byte-identical" : "MISMATCH") << "\n";
    return identical ? 0 : 1;
  }

  // Sweep / one-shot: enumerate policy x shard-size cells.
  const bool sweep = config.policies.size() > 1 || shard_sizes.size() > 1;
  std::ostringstream csv;
  csv << kRowHeader << "\n";
  util::Table table({"policy", "shard_files", "shards", "wall s",
                     "decide-sum s", "p50 ns", "p99 ns", "total"});
  core::PlanDriverRun last;
  for (const std::string& name : config.policies) {
    std::unique_ptr<core::TieringPolicy> policy = make_policy(name, config.rl);
    for (const std::size_t shard_files : shard_sizes) {
      core::PlanDriverOptions options = config.options;
      options.shard_files = shard_files;
      core::PlanDriver driver(reader, prices, *policy, options);
      core::PlanDriverRun run = driver.run();
      csv << format_row("plan", shard_files, run) << "\n";
      table.add_row(
          {run.policy_name, util::format_count(shard_files),
           std::to_string(run.shard_count),
           util::format_double(run.wall_seconds, 2),
           util::format_double(run.decision_seconds, 2),
           util::format_double(run.file_decide_p50_ns, 0),
           util::format_double(run.file_decide_p99_ns, 0),
           util::format_money(run.report.grand_total().total())});
      last = std::move(run);
    }
  }

  if (format == "csv") {
    std::cout << csv.str();
  } else if (sweep) {
    std::cout << "sweep over " << cli.positional().front() << " ("
              << prices.name() << "):\n"
              << table.to_string();
  } else {
    print_run(last, reader, prices);
  }
  if (!cli.str("out").empty()) {
    std::ofstream(cli.str("out")) << csv.str();
    std::cout << "[rows] " << cli.str("out") << "\n";
  }

  obs::RunReport report = obs::make_report("minicost_plan");
  report.metrics.emplace_back("plan_wall_seconds", last.wall_seconds);
  report.metrics.emplace_back("decide_sum_seconds", last.decision_seconds);
  report.metrics.emplace_back("file_decide_p50_ns", last.file_decide_p50_ns);
  report.metrics.emplace_back("file_decide_p99_ns", last.file_decide_p99_ns);
  report.metrics.emplace_back("total_cost", last.report.grand_total().total());
  std::cout << "[report] "
            << obs::write_report(report,
                                 util::env_str("MINICOST_OUT", "bench_out"))
                   .string()
            << "\n";
  return 0;
}

int cmd_plan(int argc, const char* const* argv) {
  util::Cli cli("minicost plan",
                "bill tiering policies over a trace (.csv in-memory, .mct "
                "through the sharded PlanDriver)");
  cli.add_flag("policy", "optimal",
               "hot | cold | greedy | optimal | mpc | rl (comma list sweeps)");
  cli.add_flag("agent", "",
               "A3C checkpoint for --policy rl (empty = fresh "
               "deterministic init from --agent-seed)");
  cli.add_flag("agent-seed", "1234", "init seed for --policy rl");
  cli.add_flag("start", "0", "first billed day (default: last 35 days)");
  cli.add_flag("preset", "azure", "price preset");
  cli.add_flag("shard-files", "65536", ".mct files per shard (0 = one shard)");
  cli.add_flag("serve", "false",
               "resident mode: read plan/replan/touch/policy/sweep commands "
               "from stdin (.mct)");
  cli.add_flag("replan", "",
               "FIRST:COUNT — plan, touch that file range, incrementally "
               "replan, verify byte-identical (.mct)");
  cli.add_flag("sweep-shard-files", "",
               "comma list of shard sizes to sweep (.mct)");
  cli.add_flag("format", "table", "table | csv");
  cli.add_flag("out", "", "also write the CSV rows to this file (.mct)");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.positional().empty()) {
    std::cerr << "plan: need a trace file\n";
    return 1;
  }
  const std::string& input = cli.positional().front();
  if (input.size() > 4 && input.compare(input.size() - 4, 4, ".mct") == 0)
    return cmd_plan_store(cli);

  const trace::RequestTrace tr = trace::load_trace(input);
  const std::string preset = cli.str("preset");
  const pricing::PricingPolicy prices =
      preset == "s3"    ? pricing::PricingPolicy::s3_like()
      : preset == "gcs" ? pricing::PricingPolicy::gcs_like()
                        : pricing::PricingPolicy::azure_2020();

  core::PlanOptions options;
  options.start_day = cli.integer("start") > 0
                          ? static_cast<std::size_t>(cli.integer("start"))
                          : (tr.days() > 35 ? tr.days() - 35 : 1);
  options.initial_tiers =
      core::static_initial_tiers(tr, prices, options.start_day);

  RlCliOptions rl;
  rl.checkpoint = cli.str("agent");
  rl.seed = static_cast<std::uint64_t>(cli.integer("agent-seed"));
  std::unique_ptr<core::TieringPolicy> policy =
      make_policy(cli.str("policy"), rl);
  if (policy == nullptr) {
    std::cerr << "plan: unknown policy '" << cli.str("policy") << "'\n";
    return 1;
  }

  const core::PlanResult result = core::run_policy(tr, prices, *policy, options);
  const auto& total = result.report.grand_total();
  util::Table bill({"component", "amount"});
  bill.add_row({"storage (Cs)", util::format_money(total.storage)});
  bill.add_row({"reads (Cr)", util::format_money(total.read)});
  bill.add_row({"writes (Cw)", util::format_money(total.write)});
  bill.add_row({"tier changes (Cc)", util::format_money(total.change)});
  bill.add_row({"total", util::format_money(total.total())});
  std::cout << result.policy_name << " over days " << options.start_day << ".."
            << tr.days() << " (" << prices.name() << "):\n"
            << bill.to_string() << "tier changes: "
            << util::format_count(result.report.tier_changes())
            << ", decision time: "
            << util::format_double(result.decision_seconds, 2) << "s\n";

  // Machine-readable run report (obs counters/timers + env fingerprint) for
  // the CI perf gate; same MINICOST_OUT directory the benches write to.
  obs::RunReport report = obs::make_report("minicost_plan");
  report.metrics.emplace_back("decision_seconds", result.decision_seconds);
  report.metrics.emplace_back("total_cost", total.total());
  std::cout << "[report] "
            << obs::write_report(report,
                                 util::env_str("MINICOST_OUT", "bench_out"))
                   .string()
            << "\n";
  return 0;
}

int cmd_crossover(int argc, const char* const* argv) {
  util::Cli cli("minicost crossover", "tier break-even request rates");
  cli.add_flag("preset", "azure", "price preset");
  cli.add_flag("size-mb", "100", "file size, MB");
  if (!cli.parse(argc, argv)) return 1;
  const std::string preset = cli.str("preset");
  const pricing::PricingPolicy prices =
      preset == "s3"    ? pricing::PricingPolicy::s3_like()
      : preset == "gcs" ? pricing::PricingPolicy::gcs_like()
                        : pricing::PricingPolicy::azure_2020();
  const double gb = cli.real("size-mb") / 1024.0;
  util::Table table({"boundary", "reads/day"});
  table.add_row({"hot vs cool",
                 util::format_double(
                     sim::tier_crossover_reads(prices,
                                               pricing::StorageTier::kHot,
                                               pricing::StorageTier::kCool, gb,
                                               0.02),
                     3)});
  table.add_row({"cool vs archive",
                 util::format_double(
                     sim::tier_crossover_reads(
                         prices, pricing::StorageTier::kCool,
                         pricing::StorageTier::kArchive, gb, 0.02),
                     3)});
  std::cout << prices.name() << " @ " << cli.str("size-mb") << " MB:\n"
            << table.to_string();
  return 0;
}

void usage() {
  std::cout << "minicost <command> [flags]\n\ncommands:\n"
               "  generate   synthesize a Wikipedia-like trace\n"
               "  convert    convert Wikimedia pagecounts dumps to a trace\n"
               "  analyze    variability analysis of a trace (paper Fig. 2)\n"
               "  plan       bill a tiering policy over a trace\n"
               "  crossover  tier break-even request rates for a price preset\n"
               "\nrun `minicost <command> --help` for per-command flags\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  // Each subcommand re-parses from its own argv slice (argv[1] becomes the
  // program name).
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "generate") return cmd_generate(sub_argc, sub_argv);
    if (command == "convert") return cmd_convert(sub_argc, sub_argv);
    if (command == "analyze") return cmd_analyze(sub_argc, sub_argv);
    if (command == "plan") return cmd_plan(sub_argc, sub_argv);
    if (command == "crossover") return cmd_crossover(sub_argc, sub_argv);
  } catch (const std::exception& error) {
    std::cerr << "minicost " << command << ": " << error.what() << "\n";
    return 1;
  }
  usage();
  return command == "--help" || command == "-h" ? 0 : 1;
}
