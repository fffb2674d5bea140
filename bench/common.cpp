#include "common.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/run_report.hpp"
#include "trace/synthetic.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/stopwatch.hpp"

namespace minicost::benchx {

Workload standard_workload(double grouped_fraction) {
  trace::SyntheticConfig config;
  config.file_count = util::bench_scale(6000);
  config.seed = util::bench_seed();
  config.grouped_file_fraction = grouped_fraction;
  Workload workload;
  workload.seed = config.seed;
  workload.full = trace::generate_synthetic(config);
  auto [train, test] = workload.full.split(0.8, config.seed);
  workload.train = std::move(train);
  workload.test = std::move(test);
  return workload;
}

pricing::PricingPolicy standard_pricing() {
  return pricing::PricingPolicy::azure_2020();
}

std::size_t eval_start(const trace::RequestTrace& trace) {
  return trace.days() > 35 ? trace.days() - 35 : 1;
}

std::filesystem::path bench_out() {
  const std::filesystem::path dir = util::env_str("MINICOST_OUT", "bench_out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

std::unique_ptr<rl::A3CAgent> shared_agent(const Workload& workload,
                                           std::size_t episodes,
                                           const pricing::PricingPolicy* pricing,
                                           const std::string& tag) {
  if (episodes == 0)
    episodes = util::env_size("MINICOST_EPISODES", 120000);
  const pricing::PricingPolicy prices =
      pricing != nullptr ? *pricing : standard_pricing();

  rl::A3CConfig config;  // library defaults = the validated setup
  auto agent = std::make_unique<rl::A3CAgent>(config, workload.seed);

  std::ostringstream key;
  key << "agent_s" << workload.seed << "_n" << workload.full.file_count()
      << "_e" << episodes << "_w" << config.filters << "x" << config.hidden;
  if (!tag.empty()) key << "_" << tag;
  key << ".ckpt";
  const std::filesystem::path checkpoint = bench_out() / key.str();

  if (std::filesystem::exists(checkpoint)) {
    std::cout << "[agent] loading cached checkpoint " << checkpoint << "\n";
    agent->load(checkpoint);
    return agent;
  }

  std::cout << "[agent] training " << episodes << " episodes on "
            << workload.train.file_count() << " files (cached afterwards)\n";
  util::Stopwatch watch;
  rl::TrainOptions options;
  options.episodes = episodes;
  options.report_every = std::max<std::size_t>(1, episodes / 5);
  options.on_progress = [&](const rl::TrainProgress& progress) {
    std::cout << "[agent]   episodes=" << progress.episodes_done
              << " mean reward=" << util::format_double(progress.mean_reward, 3)
              << " (" << util::format_double(watch.seconds(), 0) << "s)\n";
  };
  agent->train(workload.train, prices, options);
  agent->save(checkpoint);
  std::cout << "[agent] trained in " << util::format_double(watch.seconds(), 1)
            << "s; checkpoint: " << checkpoint << "\n";
  return agent;
}

void emit(const std::string& name, const std::string& banner,
          const util::Table& table) {
  std::cout << "\n=== " << banner << " ===\n" << table.to_string();
  // Mirror to CSV: one row per table row, raw cell text.
  const std::filesystem::path path = bench_out() / (name + ".csv");
  std::ofstream out(path);
  if (out) out << table.to_string();
  std::cout << "[csv] " << path << "\n";
  write_run_report(name);
}

std::filesystem::path write_run_report(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  obs::RunReport report = obs::make_report(name);
  report.metrics.insert(report.metrics.end(), metrics.begin(), metrics.end());
  const std::filesystem::path path = obs::write_report(report, bench_out());
  std::cerr << "[report] " << path.string() << "\n";
  return path;
}

void expectation(const std::string& text) {
  std::cout << "expected shape (paper): " << text << "\n";
}

SweepPool::SweepPool() {
  const std::size_t knob = util::env_size("MINICOST_SWEEP_POOL", 0);
  if (knob == 1) return;  // serial reference path
  owned_ = std::make_unique<util::ThreadPool>(knob);  // 0 = hardware-sized
  pool_ = owned_.get();
}

RlEval::RlEval(trace::RequestTrace eval_trace, pricing::PricingPolicy pricing,
               std::size_t window)
    : trace_(std::move(eval_trace)), pricing_(std::move(pricing)) {
  options_.start_day = trace_.days() > window ? trace_.days() - window : 1;
  options_.initial_tiers =
      core::static_initial_tiers(trace_, pricing_, options_.start_day);
  core::OptimalPolicy optimal;
  core::PlanResult result = core::run_policy(trace_, pricing_, optimal, options_);
  optimal_cost_ = result.report.grand_total().total();
  optimal_plan_ = std::move(result.plan);
}

core::PlanResult RlEval::run(rl::A3CAgent& agent) const {
  core::RlPolicy policy(agent);
  return core::run_policy(trace_, pricing_, policy, options_);
}

double RlEval::action_rate(rl::A3CAgent& agent) const {
  return core::action_agreement(run(agent).plan, optimal_plan_);
}

double RlEval::cost(rl::A3CAgent& agent) const {
  return run(agent).report.grand_total().total();
}

}  // namespace minicost::benchx
