// Figure 10 — "The performance for different greedy rates": the
// optimal-action rate as a function of training steps for
// ε ∈ {0.001, 0.01, 0.1}. The paper's finding: small ε makes fast initial
// progress but converges to a worse final policy (too little exploration);
// ε = 0.1 is slowest initially but best in the end.

#include <iostream>

#include "common.hpp"
#include "sweep_runner.hpp"
#include "trace/synthetic.hpp"
#include "util/env.hpp"

int main() {
  using namespace minicost;
  std::cout << "fig10: optimal action rate vs steps per greedy rate ε "
               "(Figure 10)\n";

  trace::SyntheticConfig workload;
  workload.file_count = util::env_size("MINICOST_FIG10_FILES", 500);
  workload.seed = util::bench_seed();
  const trace::RequestTrace tr = trace::generate_synthetic(workload);
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const benchx::RlEval eval(tr, prices);

  const std::vector<double> epsilons{0.001, 0.01, 0.1};
  const auto max_episodes = util::env_size("MINICOST_FIG10_EPISODES", 36000);
  const std::size_t points = 10;

  struct Curve {
    double epsilon = 0.0;
    std::vector<std::pair<std::size_t, double>> samples;
  };
  // One independent agent per ε, farmed across the sweep pool; same seed
  // per point so ε is the only variable (MINICOST_SWEEP_POOL knob).
  benchx::SweepPool sweep_pool;
  benchx::SweepRunner runner(workload.seed, sweep_pool.get());
  std::cout << "  sweep farm: " << epsilons.size() << " points on "
            << sweep_pool.size() << " pool thread(s)\n";
  const std::vector<Curve> curves = runner.run<Curve>(
      epsilons.size(), [&](benchx::SweepPointContext& ctx) {
        const double epsilon = epsilons[ctx.index];
        rl::A3CConfig config;
        config.epsilon = epsilon;
        config.init_candidates = 1;  // raw training dynamics, no init racing
        rl::A3CAgent agent(config, workload.seed);
        Curve curve;
        curve.epsilon = epsilon;
        rl::TrainOptions options;
        options.episodes = max_episodes;
        options.report_every = max_episodes / points;
        options.on_progress = [&](const rl::TrainProgress& progress) {
          curve.samples.emplace_back(progress.env_steps,
                                     eval.action_rate(agent));
        };
        agent.train(tr, prices, options);
        ctx.log << "  ε=" << epsilon << " final rate="
                << util::format_double(curve.samples.back().second, 3) << "\n";
        return curve;
      });

  util::Table table({"steps(ε=0.001)", "rate", "steps(ε=0.01)", "rate ",
                     "steps(ε=0.1)", "rate  "});
  for (std::size_t i = 0; i < points; ++i) {
    std::vector<std::string> row;
    for (const Curve& curve : curves) {
      if (i < curve.samples.size()) {
        row.push_back(util::format_count(curve.samples[i].first));
        row.push_back(util::format_double(curve.samples[i].second, 3));
      } else {
        row.push_back("-");
        row.push_back("-");
      }
    }
    table.add_row(std::move(row));
  }
  benchx::emit("fig10", "Figure 10: optimal-action rate vs training steps",
               table);
  benchx::expectation(
      "ε=0.001 rises fastest early but plateaus lowest; ε=0.1 explores more, "
      "progresses slower initially, and reaches the best final rate "
      "(final-rate order 0.1 > 0.01 > 0.001)");
  return 0;
}
