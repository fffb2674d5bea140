// Figure 11 — "The performance for different number of neurons and
// filters": final optimal-action rate (mean and spread over repeated runs)
// as the actor/critic width sweeps {4, 16, 32, 64, 128}. The paper: the
// rate stabilizes from 32 units, and by 64 the run-to-run variance becomes
// negligible (~95% optimal action rate at 64-128 with error bars shrinking).

#include <iostream>

#include "common.hpp"
#include "sweep_runner.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace minicost;
  std::cout << "fig11: optimal action rate vs network width (Figure 11)\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_FIG11_FILES", 400);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices);

  const std::vector<std::size_t> widths{4, 16, 32, 64, 128};
  const auto runs = util::env_size("MINICOST_FIG11_RUNS", 2);
  const auto episodes = util::env_size("MINICOST_FIG11_EPISODES", 15000);
  std::cout << "(paper repeats 10x; default here is " << runs
            << " runs — raise MINICOST_FIG11_RUNS to match)\n";

  // The width×run grid flattens into one sweep point per (width, run) pair
  // so every training run farms out independently (MINICOST_SWEEP_POOL).
  // Seeds reproduce the serial bench exactly: workload.seed + 100*(run+1).
  struct Point {
    double rate = 0.0;
    double seconds = 0.0;
  };
  benchx::SweepPool sweep_pool;
  benchx::SweepRunner runner(workload.seed, sweep_pool.get());
  const std::size_t point_count = widths.size() * runs;
  std::cout << "  sweep farm: " << point_count << " points on "
            << sweep_pool.size() << " pool thread(s)\n";
  const std::vector<Point> points = runner.run<Point>(
      point_count, [&](benchx::SweepPointContext& ctx) {
        const std::size_t width = widths[ctx.index / runs];
        const std::size_t run = ctx.index % runs;
        rl::A3CConfig config;
        config.filters = width;
        config.hidden = width;
        rl::A3CAgent agent(config, workload.seed + 100 * (run + 1));
        rl::TrainOptions options;
        options.episodes = episodes;
        options.report_every = episodes;
        util::Stopwatch watch;
        agent.train(tr, prices, options);
        Point point;
        point.rate = eval.action_rate(agent);
        point.seconds = watch.seconds();
        ctx.log << "  width=" << width << " run=" << run
                << " rate=" << util::format_double(point.rate, 3) << "\n";
        return point;
      });

  util::Table table({"neurons+filters", "mean action rate", "min", "max",
                     "spread", "train s/run"});
  for (std::size_t w = 0; w < widths.size(); ++w) {
    stats::RunningStats rates;
    double seconds = 0.0;
    for (std::size_t run = 0; run < runs; ++run) {
      rates.add(points[w * runs + run].rate);
      seconds += points[w * runs + run].seconds;
    }
    table.add_row({util::format_count(widths[w]),
                   util::format_double(rates.mean(), 3),
                   util::format_double(rates.min(), 3),
                   util::format_double(rates.max(), 3),
                   util::format_double(rates.max() - rates.min(), 3),
                   util::format_double(seconds / static_cast<double>(runs),
                                       1)});
    std::cout << "  width=" << widths[w]
              << " mean=" << util::format_double(rates.mean(), 3) << "\n";
  }
  benchx::emit("fig11", "Figure 11: action rate vs number of neurons/filters",
               table);
  benchx::expectation(
      "the mean rate climbs with width and stabilizes from ~32 units; by 64 "
      "the spread across runs becomes small (the paper reports ~95% with "
      "negligible variance at 64-128)");
  return 0;
}
