// Figure 3 — "Potential saved money for one day" per variability bucket:
// the gap between a static customer assignment and the offline-optimal
// (brute-force ≡ per-file DP) assignment, broken down by the paper's
// std-dev buckets.
//
// Two baselines are reported:
//   * single-tier  — all files hot or all cold, whichever is cheaper
//     (the paper's literal description);
//   * per-file static — every file pinned to its best static tier, which
//     isolates the value of *dynamic re-tiering* (this is the series whose
//     per-file value grows with variability, the figure's headline shape).

#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "core/metrics.hpp"
#include "core/optimal.hpp"
#include "trace/analysis.hpp"

int main() {
  using namespace minicost;
  std::cout << "fig03: potential savings of optimal assignment (Figure 3)\n";
  const benchx::Workload workload = benchx::standard_workload();
  const trace::RequestTrace& tr = workload.full;
  const pricing::PricingPolicy prices = benchx::standard_pricing();
  const trace::VariabilityAnalysis analysis = trace::analyze_variability(tr);
  const std::size_t start = benchx::eval_start(tr);
  const std::size_t days = tr.days() - start;

  core::PlanOptions options;
  options.start_day = start;

  // Pinned-to-initial policy reused for both static baselines.
  class PinnedPolicy final : public core::TieringPolicy {
   public:
    std::string name() const override { return "Pinned"; }
    core::Knowledge knowledge() const noexcept override {
      return core::Knowledge::kNone;
    }
    std::unique_ptr<core::TieringPolicy> clone() const override {
      return std::make_unique<PinnedPolicy>();
    }
    void decide_day(const core::PlanContext& context, std::size_t,
                    std::span<const pricing::StorageTier> current,
                    std::span<pricing::StorageTier> out_plan) override {
      core::check_batch_widths(context, current, out_plan);
      std::copy(current.begin(), current.end(), out_plan.begin());
    }
  };

  auto run_with_initial = [&](std::vector<pricing::StorageTier> initial,
                              core::TieringPolicy& policy) {
    core::PlanOptions opts = options;
    opts.initial_tiers = std::move(initial);
    return core::run_policy(tr, prices, policy, opts);
  };

  // Single-tier baseline (all hot vs all cold, take the cheaper).
  PinnedPolicy pinned;
  const core::PlanResult all_hot = run_with_initial(
      std::vector<pricing::StorageTier>(tr.file_count(),
                                        pricing::StorageTier::kHot),
      pinned);
  const core::PlanResult all_cold = run_with_initial(
      std::vector<pricing::StorageTier>(tr.file_count(),
                                        pricing::StorageTier::kCool),
      pinned);
  const core::PlanResult& single_tier =
      all_hot.report.grand_total().total() <=
              all_cold.report.grand_total().total()
          ? all_hot
          : all_cold;

  // Per-file static baseline (3-tier best static) and the optimum.
  const auto static_tiers =
      core::static_initial_tiers(tr, prices, start, /*include_archive=*/true);
  const core::PlanResult per_file_static =
      run_with_initial(static_tiers, pinned);
  core::OptimalPolicy optimal;
  core::PlanOptions optimal_options = options;
  optimal_options.initial_tiers = static_tiers;
  const core::PlanResult best =
      core::run_policy(tr, prices, optimal, optimal_options);

  const auto single_buckets =
      core::cost_by_variability(analysis, single_tier);
  const auto static_buckets =
      core::cost_by_variability(analysis, per_file_static);
  const auto optimal_buckets = core::cost_by_variability(analysis, best);

  util::Table table({"bucket", "files", "saved/day vs single-tier",
                     "saved/day vs per-file static",
                     "dynamic saving per file-day"});
  for (std::size_t b = 0; b < single_buckets.size(); ++b) {
    const double vs_single =
        (single_buckets[b].total_cost - optimal_buckets[b].total_cost) /
        static_cast<double>(days);
    const double vs_static =
        (static_buckets[b].total_cost - optimal_buckets[b].total_cost) /
        static_cast<double>(days);
    const double per_file =
        single_buckets[b].files == 0
            ? 0.0
            : vs_static / static_cast<double>(single_buckets[b].files);
    table.add_row({single_buckets[b].label,
                   util::format_count(single_buckets[b].files),
                   util::format_money(vs_single), util::format_money(vs_static),
                   util::format_double(per_file, 8)});
  }
  benchx::emit("fig03", "Figure 3: potential saved money per bucket", table);
  benchx::expectation(
      "savings exist in every bucket; the low-variability bucket saves a lot "
      "in total (sheer count) while the >0.8 bucket saves the most per file "
      "(flash crowds are where re-tiering pays)");
  std::cout << "totals: single-tier="
            << util::format_money(single_tier.report.grand_total().total())
            << " per-file-static="
            << util::format_money(per_file_static.report.grand_total().total())
            << " optimal="
            << util::format_money(best.report.grand_total().total()) << "\n";
  return 0;
}
