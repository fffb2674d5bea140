// Pricing explorer: inspect a CSP price sheet the way MiniCost's planner
// sees it — per-tier unit prices, daily cost curves, and the break-even
// request rates where the optimal tier flips. Useful when plugging in your
// own PricingPolicy.
//
// Run:  ./pricing_explorer [--preset azure|s3|gcs] [--size-mb 100]

#include <iostream>
#include <stdexcept>

#include "pricing/catalog.hpp"
#include "sim/cost_model.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace minicost;

  util::Cli cli("pricing_explorer", "CSP pricing-policy explorer");
  cli.add_flag("preset", "azure", "price preset: azure | s3 | gcs");
  cli.add_flag("size-mb", "100", "file size for the cost curves (MB)");
  if (!cli.parse(argc, argv)) return 1;

  pricing::PricingPolicy policy;
  double gb = 0.0;
  try {
    policy = pricing::PricingPolicy::preset(cli.str("preset"));
    gb = cli.real("size-mb") / 1024.0;
  } catch (const std::invalid_argument& error) {
    std::cerr << "pricing_explorer: " << error.what() << "\n";
    return 1;
  }
  policy.check_tier_monotonicity();

  std::cout << "pricing policy: " << policy.name() << "\n\n";
  util::Table sheet({"tier", "storage $/GB-mo", "read $/10k ops",
                     "write $/10k ops", "read $/GB", "write $/GB"});
  for (pricing::StorageTier t : pricing::all_tiers()) {
    const pricing::TierPrice& p = policy.tier(t);
    sheet.add_row({std::string(pricing::tier_name(t)),
                   util::format_double(p.storage_gb_month, 5),
                   util::format_double(p.read_per_10k_ops, 4),
                   util::format_double(p.write_per_10k_ops, 4),
                   util::format_double(p.read_per_gb, 4),
                   util::format_double(p.write_per_gb, 4)});
  }
  std::cout << sheet.to_string() << "\ntier change: "
            << util::format_double(policy.tier_change_per_gb(), 5)
            << " $/GB\n\n";

  // Daily cost curves at the chosen size.
  util::Table curves({"reads/day", "hot $/day", "cool $/day", "archive $/day",
                      "best tier"});
  for (double rate : {0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0,
                      200.0, 1000.0}) {
    const double writes = 0.02 * rate + 0.05;
    std::vector<std::string> row{util::format_double(rate, 2)};
    for (pricing::StorageTier t : pricing::all_tiers()) {
      row.push_back(util::format_double(
          sim::file_day_cost_no_change(policy, t, rate, writes, gb).total(),
          7));
    }
    row.push_back(std::string(pricing::tier_name(
        sim::best_static_tier(policy, rate, writes, gb))));
    curves.add_row(std::move(row));
  }
  std::cout << "daily cost for a " << cli.str("size-mb") << " MB file:\n"
            << curves.to_string() << "\n";

  std::cout << "break-even read rates (reads/day at "
            << cli.str("size-mb") << " MB):\n  hot vs cool:     "
            << util::format_double(
                   sim::tier_crossover_reads(policy, pricing::StorageTier::kHot,
                                             pricing::StorageTier::kCool, gb,
                                             0.02),
                   3)
            << "\n  cool vs archive: "
            << util::format_double(
                   sim::tier_crossover_reads(policy,
                                             pricing::StorageTier::kCool,
                                             pricing::StorageTier::kArchive,
                                             gb, 0.02),
                   3)
            << "\n\n";

  // Multi-datacenter view (paper Sec. 4.1's set Ds).
  const pricing::PriceCatalog catalog = pricing::PriceCatalog::default_catalog();
  util::Table regions({"datacenter", "cheapest for 0.5 r/d", "for 50 r/d"});
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    regions.add_row({catalog.at(i).name,
                     catalog.cheapest_for(gb, 0.5, 0.06) == i ? "yes" : "",
                     catalog.cheapest_for(gb, 50.0, 1.05) == i ? "yes" : ""});
  }
  std::cout << "default multi-datacenter catalog:\n" << regions.to_string();
  return 0;
}
