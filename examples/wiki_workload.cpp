// Wikipedia-workload scenario: the paper's Section 3 trace analysis, run
// end to end on either (a) a real Wikimedia pagecounts directory you supply
// with --pagecounts <dir>, or (b) the calibrated synthetic trace.
//
// Prints:
//   * the variability histogram (paper Figure 2),
//   * per-bucket traffic and size statistics,
//   * ARIMA 7-day forecast-error percentiles per bucket (paper Figure 4),
//   * the potential saved money of optimal assignment (paper Figure 3).
//
// Run:  ./wiki_workload [--files 3000] [--pagecounts /path/to/dumps]

#include <iostream>
#include <stdexcept>

#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "forecast/evaluate.hpp"
#include "sim/cost_model.hpp"
#include "stats/descriptive.hpp"
#include "trace/analysis.hpp"
#include "trace/pagecounts_parser.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace minicost;

  util::Cli cli("wiki_workload", "Section-3 style trace analysis");
  cli.add_flag("files", "3000", "synthetic file count (ignored with --pagecounts)");
  cli.add_flag("pagecounts", "", "directory of Wikimedia pagecounts dump files");
  cli.add_flag("seed", "42", "experiment seed");
  if (!cli.parse(argc, argv)) return 1;

  trace::RequestTrace tr;
  try {
    const std::uint64_t seed = cli.size("seed");
    const std::size_t files = cli.size("files");
    if (const std::string dir = cli.str("pagecounts"); !dir.empty()) {
      const trace::PageviewAggregator dumps =
          trace::load_pagecounts_directory(dir, 62, "en");
      std::cerr << "pagecounts: skipped lines: " << dumps.malformed_lines()
                << " malformed, " << dumps.lines_past_horizon()
                << " with views past day 62\n";
      tr = dumps.build_trace(100.0, 0.02, seed);
    } else {
      trace::SyntheticConfig config;
      config.file_count = files;
      config.seed = seed;
      tr = trace::generate_synthetic(config);
    }
  } catch (const std::exception& error) {
    std::cerr << "wiki_workload: " << error.what() << "\n";
    return 1;
  }
  std::cout << "trace: " << tr.file_count() << " files over " << tr.days()
            << " days\n\n";

  // --- Figure 2: variability histogram --------------------------------
  const trace::VariabilityAnalysis analysis = trace::analyze_variability(tr);
  util::Table fig2({"std-dev bucket", "files", "share"});
  for (std::size_t b = 0; b < analysis.histogram.bucket_count(); ++b) {
    fig2.add_row({analysis.histogram.label(b),
                  util::format_count(analysis.histogram.count(b)),
                  util::format_double(100.0 * analysis.histogram.share(b), 2) + "%"});
  }
  std::cout << "request-frequency variability (paper Fig. 2):\n"
            << fig2.to_string() << "\n";

  // --- Figure 4: ARIMA forecast errors per bucket ----------------------
  forecast::BacktestConfig backtest_config;
  backtest_config.train_days = tr.days() - 7;
  backtest_config.horizon = 7;
  util::ThreadPool pool;  // hardware-sized
  const forecast::BacktestResult backtest =
      forecast::backtest(tr, backtest_config, pool);
  util::Table fig4({"bucket", "files", "p1", "median", "p99", "mean |err|"});
  for (const auto& bucket : backtest.summary) {
    fig4.add_row({bucket.label, util::format_count(bucket.files),
                  util::format_double(bucket.p1, 3),
                  util::format_double(bucket.p50, 3),
                  util::format_double(bucket.p99, 3),
                  util::format_double(bucket.mean_abs, 3)});
  }
  std::cout << "ARIMA 7-day relative forecast errors (paper Fig. 4):\n"
            << fig4.to_string() << "\n";

  // --- Figure 3: potential savings of optimal assignment ---------------
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  core::PlanOptions options;
  options.start_day = tr.days() >= 35 ? tr.days() - 35 : 1;
  options.initial_tiers =
      core::static_initial_tiers(tr, azure, options.start_day);
  options.pool = &pool;
  core::OptimalPolicy optimal;
  const core::PlanResult optimal_result =
      core::run_policy(tr, azure, optimal, options);

  // Baseline: the paper's "all hot or all cold, whichever is lower".
  auto run_static = [&](pricing::StorageTier tier) {
    core::AlwaysTierPolicy policy(tier);
    return core::run_policy(tr, azure, policy, options)
        .report.grand_total()
        .total();
  };
  const double all_hot = run_static(pricing::StorageTier::kHot);
  const double all_cold = run_static(pricing::StorageTier::kCool);
  const double baseline = std::min(all_hot, all_cold);
  std::cout << "potential saved money vs best single tier (paper Fig. 3):\n"
            << "  all-hot bill:  " << util::format_money(all_hot) << "\n"
            << "  all-cold bill: " << util::format_money(all_cold) << "\n"
            << "  optimal bill:  "
            << util::format_money(optimal_result.report.grand_total().total())
            << "\n  saving:        "
            << util::format_money(baseline -
                                  optimal_result.report.grand_total().total())
            << " ("
            << util::format_double(
                   100.0 *
                       (baseline -
                        optimal_result.report.grand_total().total()) /
                       baseline,
                   2)
            << "%)\n";
  return 0;
}
