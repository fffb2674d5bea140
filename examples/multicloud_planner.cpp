// Multi-datacenter placement scenario (paper Sec. 4.1: files distributed
// over a set Ds of datacenters, each with its own pricing policy). The
// planner jointly optimizes (datacenter, tier) per file with cross-DC
// transfer costs, and compares against confining all files to the best
// single region.
//
// Run:  ./multicloud_planner [--files 800] [--transfer 0.02]

#include <iostream>
#include <stdexcept>

#include "core/multicloud.hpp"
#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace minicost;

  util::Cli cli("multicloud_planner", "joint (datacenter, tier) placement");
  cli.add_flag("files", "800", "number of data files");
  cli.add_flag("transfer", "0.02", "cross-DC transfer price, $/GB");
  cli.add_flag("seed", "42", "experiment seed");
  if (!cli.parse(argc, argv)) return 1;

  trace::SyntheticConfig workload;
  core::MultiCloudConfig config;
  try {
    workload.file_count = cli.size("files");
    workload.seed = cli.size("seed");
    config.cross_dc_transfer_per_gb = cli.real("transfer");
  } catch (const std::invalid_argument& error) {
    std::cerr << "multicloud_planner: " << error.what() << "\n";
    return 1;
  }
  // A read-heavy (CDN-like) application: with the default write rates the
  // per-write replica costs dominate dead files' bills and a single
  // access-cheap region wins everywhere, which makes a boring demo.
  workload.write_read_ratio = 0.005;
  workload.base_write_rate = 0.005;
  const trace::RequestTrace tr = trace::generate_synthetic(workload);

  const core::MultiCloudPlanner planner(
      pricing::PriceCatalog::default_catalog(), config);

  std::cout << "catalog:\n";
  util::Table regions({"datacenter", "policy", "hot $/GB-mo"});
  for (std::size_t i = 0; i < planner.catalog().size(); ++i) {
    const auto& dc = planner.catalog().at(i);
    regions.add_row({dc.name, dc.policy.name(),
                     util::format_double(
                         dc.policy.tier(pricing::StorageTier::kHot).storage_gb_month,
                         5)});
  }
  std::cout << regions.to_string() << "\n";

  // Where do different usage profiles land?
  util::Table placements({"profile", "reads/day", "placement"});
  for (auto [label, rate] :
       std::vector<std::pair<std::string, double>>{
           {"dead", 0.01}, {"cool-band", 1.0}, {"popular", 50.0}}) {
    const core::Placement p =
        planner.best_static_placement(rate, 0.005 * rate + 0.005, 0.1);
    placements.add_row({label, util::format_double(rate, 2),
                        planner.catalog().at(p.datacenter).name + "/" +
                            std::string(pricing::tier_name(p.tier))});
  }
  std::cout << "static placements for a 100 MB file:\n"
            << placements.to_string() << "\n";

  const std::size_t start = tr.days() - 35;
  const auto comparison = planner.compare(tr, start, tr.days());
  std::cout << "35-day bill, all files optimally tiered inside the best "
               "single region ("
            << planner.catalog().at(comparison.best_single_dc).name
            << "): " << util::format_money(comparison.best_single_dc_cost)
            << "\n35-day bill with joint multi-cloud placement:         "
            << util::format_money(comparison.multi_cloud_cost)
            << "\nsaving: " << util::format_money(comparison.saving()) << " ("
            << util::format_double(
                   100.0 * comparison.saving() / comparison.best_single_dc_cost,
                   2)
            << "%)\n";
  return 0;
}
