#include "core/greedy.hpp"

#include <limits>

#include "sim/cost_model.hpp"

namespace minicost::core {
namespace {

pricing::StorageTier cheapest_for_day(const PlanContext& context,
                                      const trace::FileRecord& f,
                                      double reads, double writes,
                                      pricing::StorageTier current,
                                      bool include_archive) {
  pricing::StorageTier best = current;
  double best_cost = std::numeric_limits<double>::infinity();
  for (pricing::StorageTier t : pricing::all_tiers()) {
    if (!include_archive && t == pricing::StorageTier::kArchive &&
        current != pricing::StorageTier::kArchive) {
      continue;  // 2-tier greedy never moves a file INTO archive
    }
    const double cost =
        sim::file_day_cost(context.pricing, t, current, reads, writes, f.size_gb)
            .total();
    if (cost < best_cost) {
      best_cost = cost;
      best = t;
    }
  }
  return best;
}

}  // namespace

void GreedyPolicy::decide_day(const PlanContext& context, std::size_t day,
                              std::span<const pricing::StorageTier> current,
                              std::span<pricing::StorageTier> out_plan) {
  // Online: price the coming day with the most recent observation.
  const std::size_t observed = day > 0 ? day - 1 : 0;
  decide_each_file(context, current, out_plan,
                   [&](trace::FileId file, pricing::StorageTier tier) {
                     const trace::FileRecord& f = context.trace.file(file);
                     return cheapest_for_day(context, f, f.reads[observed],
                                             f.writes[observed], tier,
                                             include_archive_);
                   });
}

void ClairvoyantGreedyPolicy::decide_day(
    const PlanContext& context, std::size_t day,
    std::span<const pricing::StorageTier> current,
    std::span<pricing::StorageTier> out_plan) {
  decide_each_file(context, current, out_plan,
                   [&](trace::FileId file, pricing::StorageTier tier) {
                     const trace::FileRecord& f = context.trace.file(file);
                     return cheapest_for_day(context, f, f.reads[day],
                                             f.writes[day], tier,
                                             include_archive_);
                   });
}

}  // namespace minicost::core
