// Concurrent-request aggregation (paper Sec. 5.2, Algorithm 2), end to end:
// discover profitable co-request groups by the Ω coefficient, materialize
// the aggregated replicas, and compare the bill before/after.
//
// Run:  ./aggregation_demo [--files 2000] [--psi 32] [--op-mult 500]
//
// Note on --op-mult: under the literal 2020 price sheet ($ per 10,000
// operations), Eq. (15)'s benefit condition almost never holds — the
// storage cost of the replica dwarfs the per-operation savings (see
// EXPERIMENTS.md). The multiplier scales the per-operation prices to model
// transaction-cost-heavy offerings, which is the regime where the paper's
// Figure 13 gap appears. Pass --op-mult 1 to see the honest no-benefit case.

#include <iostream>
#include <stdexcept>

#include "core/aggregation.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace minicost;

  util::Cli cli("aggregation_demo", "Algorithm-2 data file aggregation");
  cli.add_flag("files", "2000", "number of data files");
  cli.add_flag("psi", "32", "top-Ψ groups allowed to aggregate");
  cli.add_flag("op-mult", "500", "operation price multiplier (1 = list prices)");
  cli.add_flag("seed", "42", "experiment seed");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig workload;
  workload.grouped_file_fraction = 0.4;
  core::AggregationConfig config;
  pricing::PricingPolicy prices;
  try {
    workload.file_count = cli.size("files");
    workload.seed = cli.size("seed");
    config.top_psi = cli.size("psi");
    prices = pricing::with_op_price_multiplier(
        pricing::PricingPolicy::azure_2020(), cli.real("op-mult"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "aggregation_demo: " << error.what() << "\n";
    return 1;
  }
  const trace::RequestTrace tr = trace::generate_synthetic(workload);

  std::cout << "pricing: " << prices.name() << "\n"
            << "co-request groups in workload: " << tr.groups().size() << "\n\n";

  // Algorithm 2: evaluate Ω for every group, select top-Ψ profitable ones.
  const auto evaluations = core::evaluate_groups(tr, prices, config, 0);
  util::Table top({"rank", "group", "members", "omega", "saving/period"});
  std::size_t shown = 0;
  for (const auto& eval : evaluations) {
    if (shown >= 10) break;
    const auto& group = tr.groups()[eval.group_index];
    top.add_row({std::to_string(shown + 1),
                 std::to_string(eval.group_index),
                 std::to_string(group.members.size()),
                 util::format_double(eval.omega, 1),
                 util::format_money(eval.saving_per_period) +
                     (eval.selected ? "  [selected]" : "")});
    ++shown;
  }
  std::cout << "top groups by aggregation coefficient (Eq. 16):\n"
            << top.to_string() << "\n";

  std::size_t selected = 0;
  for (const auto& eval : evaluations) selected += eval.selected;
  std::cout << "selected " << selected << " groups (psi=" << config.top_psi
            << ", positive-omega only)\n\n";

  // Materialize and bill both workloads under the same optimal planner so
  // the delta isolates the aggregation effect.
  const trace::RequestTrace aggregated = core::apply_aggregation(tr, evaluations);
  auto bill = [&](const trace::RequestTrace& workload_trace) {
    core::PlanOptions options;
    options.start_day = workload_trace.days() - 35;
    options.initial_tiers = core::static_initial_tiers(
        workload_trace, prices, options.start_day);
    core::OptimalPolicy optimal;
    return core::run_policy(workload_trace, prices, optimal, options)
        .report.grand_total()
        .total();
  };
  const double before = bill(tr);
  const double after = bill(aggregated);
  std::cout << "35-day optimal bill without aggregation: "
            << util::format_money(before) << "\n"
            << "35-day optimal bill with aggregation:    "
            << util::format_money(after) << "\n"
            << "saving: " << util::format_money(before - after) << " ("
            << util::format_double(100.0 * (before - after) / before, 2)
            << "%)\n\n";

  // Weekly controller with the two-consecutive-bad-weeks eviction rule.
  core::AggregationController controller(prices, config);
  for (std::size_t period = 0; period + 7 <= tr.days(); period += 7) {
    const auto& active = controller.on_period_start(tr, period);
    std::cout << "week starting day " << period << ": " << active.size()
              << " active replicas\n";
  }
  std::cout << "evictions over the horizon: " << controller.evictions() << "\n";
  return 0;
}
