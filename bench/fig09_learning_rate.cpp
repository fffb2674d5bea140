// Figure 9 — "The convergence speed for different learning rates": the
// number of training steps until the agent reproduces Optimal's decisions
// on a fixed 14-day evaluation window, swept over the learning rate.
//
// The paper sweeps RMSProp rates 0.0001..0.0055 (best ~0.0028, U-shaped).
// This library's validated optimizer is SGD+momentum, whose useful range is
// shifted (~0.001..0.04); the sweep covers it and the same U-shape appears:
// too small = slow accumulation, too large = the policy zig-zags/saturates.
// Set MINICOST_FIG9_RMSPROP=1 to sweep the paper's optimizer instead.

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "sweep_runner.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace minicost;
  std::cout << "fig09: steps to convergence vs learning rate (Figure 9)\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_FIG9_FILES", 500);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices);

  const bool rmsprop = util::env_int("MINICOST_FIG9_RMSPROP", 0) != 0;
  const std::vector<double> rates =
      rmsprop ? std::vector<double>{1e-4, 4e-4, 1e-3, 2e-3, 2.8e-3, 4e-3, 5.5e-3}
              : std::vector<double>{1e-4, 3e-4, 1e-3, 3e-3, 6e-3, 1.5e-2, 4e-2};
  const auto max_episodes = util::env_size("MINICOST_FIG9_EPISODES", 30000);
  const std::size_t eval_every = std::max<std::size_t>(1, max_episodes / 30);
  // Converged = within 5% of the best rate any configuration reaches. A
  // first pass measures the ceiling; using a fixed fraction keeps the
  // criterion scale-free.
  const double target_fraction = 0.95;

  struct Outcome {
    double rate = 0.0;
    double final_rate = 0.0;
    std::vector<std::pair<std::size_t, double>> curve;  // (steps, action rate)
  };

  // One independent agent per learning rate, farmed across the sweep pool
  // (MINICOST_SWEEP_POOL; per-point results and CSV are pool-size
  // independent). Every point trains from the same workload seed so the
  // learning rate is the only variable.
  benchx::SweepPool sweep_pool;
  benchx::SweepRunner runner(workload.seed, sweep_pool.get());
  std::cout << "  sweep farm: " << rates.size() << " points on "
            << sweep_pool.size() << " pool thread(s)\n";
  const std::vector<Outcome> outcomes = runner.run<Outcome>(
      rates.size(), [&](benchx::SweepPointContext& ctx) {
        const double lr = rates[ctx.index];
        rl::A3CConfig config;
        if (rmsprop) config.optimizer = rl::OptimizerKind::kRmsProp;
        config.learning_rate = lr;
        config.init_candidates = 1;  // raw training dynamics, no init racing
        rl::A3CAgent agent(config, workload.seed);

        Outcome outcome;
        outcome.rate = lr;
        rl::TrainOptions options;
        options.episodes = max_episodes;
        options.report_every = eval_every;
        options.on_progress = [&](const rl::TrainProgress& progress) {
          outcome.curve.emplace_back(progress.env_steps,
                                     eval.action_rate(agent));
        };
        util::Stopwatch watch;
        agent.train(tr, prices, options);
        outcome.final_rate = outcome.curve.back().second;
        ctx.log << "  lr=" << util::format_double(lr, 4)
                << " final action rate="
                << util::format_double(outcome.final_rate, 3) << " ("
                << util::format_double(watch.seconds(), 0) << "s)\n";
        return outcome;
      });
  double ceiling = 0.0;
  for (const Outcome& outcome : outcomes)
    ceiling = std::max(ceiling, outcome.final_rate);

  const double target = target_fraction * ceiling;
  util::Table table({"learning rate", "steps to converge", "final action rate"});
  for (const Outcome& outcome : outcomes) {
    std::size_t steps = 0;
    for (const auto& [env_steps, rate] : outcome.curve) {
      if (rate >= target) {
        steps = env_steps;
        break;
      }
    }
    table.add_row({util::format_double(outcome.rate, 4),
                   steps == 0 ? "not reached" : util::format_count(steps),
                   util::format_double(outcome.final_rate, 3)});
  }
  benchx::emit("fig09", "Figure 9: convergence speed vs learning rate", table);
  benchx::expectation(
      "U-shape: the step count falls toward a sweet-spot learning rate and "
      "rises again for larger rates (the paper's best was ~0.0028 for "
      "RMSProp); extreme rates may never reach the convergence target");
  return 0;
}
