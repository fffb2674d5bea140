#include "core/planner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"
#include "stats/descriptive.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

/// The files of a trace partitioned by their planning inputs: two files
/// share a class when their read and write series are byte-equal, their
/// size_gb bits are equal and they start in the same tier. Class ids follow
/// the file order of each class's first file, its representative.
struct FileClasses {
  std::vector<trace::FileId> class_of;        ///< per file: its class
  std::vector<trace::FileId> representative;  ///< per class: its first file
  std::vector<std::uint32_t> members;         ///< per class: its file count
};

FileClasses classify(const trace::RequestTrace& trace,
                     std::span<const pricing::StorageTier> initial) {
  const std::vector<trace::FileRecord>& files = trace.files();
  const std::size_t n = files.size();
  FileClasses classes;
  classes.class_of.resize(n);
  if (n == 0) return classes;

  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    const trace::FileRecord& f = files[i];
    std::uint64_t h = util::hash_doubles(f.reads.data(), f.reads.size());
    h = util::hash_mix(h, util::hash_doubles(f.writes.data(), f.writes.size()));
    h = util::hash_mix(h, util::double_bits(f.size_gb));
    hashes[i] = util::hash_finish(
        util::hash_mix(h, pricing::tier_index(initial[i])));
  }

  // Every hash hit is confirmed on the bytes: -0.0 and +0.0 differ, and so
  // do NaN payloads.
  const auto same = [&](std::size_t a, std::size_t b) {
    const trace::FileRecord& x = files[a];
    const trace::FileRecord& y = files[b];
    return initial[a] == initial[b] &&
           util::double_bits(x.size_gb) == util::double_bits(y.size_gb) &&
           x.reads.size() == y.reads.size() &&
           x.writes.size() == y.writes.size() &&
           std::memcmp(x.reads.data(), y.reads.data(),
                       x.reads.size() * sizeof(double)) == 0 &&
           std::memcmp(x.writes.data(), y.writes.data(),
                       x.writes.size() * sizeof(double)) == 0;
  };
  // Open addressing; a slot holds 1 + a class id, or 0.
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  std::vector<trace::FileId> slots(mask + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t slot = hashes[i] & mask;; slot = (slot + 1) & mask) {
      if (slots[slot] == 0) {
        const auto id =
            static_cast<trace::FileId>(classes.representative.size());
        classes.representative.push_back(static_cast<trace::FileId>(i));
        classes.members.push_back(1);
        classes.class_of[i] = id;
        slots[slot] = id + 1;
        break;
      }
      const trace::FileId id = slots[slot] - 1;
      const std::size_t rep = classes.representative[id];
      if (hashes[rep] == hashes[i] && same(rep, i)) {
        classes.class_of[i] = id;
        ++classes.members[id];
        break;
      }
    }
  }
  return classes;
}

/// A copy of the classes' representatives, without co-request groups.
trace::RequestTrace representatives_trace(const trace::RequestTrace& trace,
                                          const FileClasses& classes) {
  std::vector<trace::FileRecord> files;
  files.reserve(classes.representative.size());
  for (const trace::FileId rep : classes.representative)
    files.push_back(trace.files()[rep]);
  return trace::RequestTrace(trace.days(), std::move(files));
}

}  // namespace

PlanResult run_policy(const trace::RequestTrace& trace,
                      const pricing::PricingPolicy& pricing,
                      TieringPolicy& policy, const PlanOptions& options) {
  const std::size_t end_day =
      options.end_day == 0 ? trace.days() : options.end_day;
  if (options.start_day >= end_day || end_day > trace.days())
    throw std::invalid_argument("run_policy: bad planning window");
  const std::size_t n = trace.file_count();

  std::vector<pricing::StorageTier> initial =
      options.initial_tiers.empty()
          ? std::vector<pricing::StorageTier>(n, options.default_initial_tier)
          : options.initial_tiers;
  if (initial.size() != n)
    throw std::invalid_argument("run_policy: initial_tiers width mismatch");

  // Every policy decides a file from its own inputs alone (DESIGN.md §7),
  // so files with identical inputs get identical plans and bills: plan and
  // bill one representative per class, then hand both back per file. With
  // no repeats the representatives are the input trace itself.
  FileClasses classes;
  bool classed = false;
  trace::RequestTrace representatives;
  std::vector<pricing::StorageTier> representative_initial;
  {
    MC_OBS_SCOPE("core.prepare");
    classes = classify(trace, initial);
    classed = classes.representative.size() < n;
    if (classed) {
      representatives = representatives_trace(trace, classes);
      representative_initial.reserve(classes.representative.size());
      for (const trace::FileId rep : classes.representative)
        representative_initial.push_back(initial[rep]);
    }
  }
  const trace::TraceView planned = classed ? representatives : trace;
  const std::span<const pricing::StorageTier> planned_initial =
      classed ? representative_initial : initial;
  const std::size_t width = planned.file_count();
  const std::size_t window = end_day - options.start_day;

  // One contiguous block of files per pool thread. Files are independent
  // over the whole horizon, so each block runs the whole day loop alone:
  // its own policy clone, prepared on its own files, decides each day, and
  // its own simulator bills it.
  const std::size_t threads = options.pool ? options.pool->size() : 1;
  const std::size_t blocks = std::max<std::size_t>(1, std::min(threads, width));
  const auto block_first = [&](std::size_t b) { return b * width / blocks; };
  std::vector<std::unique_ptr<TieringPolicy>> clones;
  clones.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) clones.push_back(policy.clone());
  sim::HorizonPlan planned_plan(window, sim::DayPlan(width));
  std::vector<sim::BillingReport> block_reports(blocks);
  std::vector<double> block_decide_seconds(blocks, 0.0);

  const auto plan_block = [&](std::size_t b) {
    const std::size_t first = block_first(b);
    const std::size_t count = block_first(b + 1) - first;
    TieringPolicy& block_policy = *clones[b];
    const PlanContext context{planned.subview(first, count), pricing,
                              options.start_day, end_day,
                              planned_initial.subspan(first, count)};
    {
      // prepare() is where forecasting policies fit their models (ARIMA,
      // seasonal-naive), Optimal runs its DP and the RL policy warms its
      // featurizer.
      MC_OBS_SCOPE("core.prepare");
      block_policy.prepare(context);
    }
    // Bills only the window's days of the full trace; its current tiers are
    // each file's tier entering the next day.
    sim::SimulatorOptions sim_options;
    sim_options.initial_tiers.assign(context.initial_tiers.begin(),
                                     context.initial_tiers.end());
    sim_options.charge_initial_placement = options.charge_initial_placement;
    sim_options.start_day = options.start_day;
    sim_options.end_day = end_day;
    if (classed)
      sim_options.members.assign(
          classes.members.begin() + static_cast<std::ptrdiff_t>(first),
          classes.members.begin() + static_cast<std::ptrdiff_t>(first + count));
    sim::StorageSimulator simulator(context.trace, pricing,
                                    std::move(sim_options));
    for (std::size_t day = options.start_day; day < end_day; ++day) {
      const std::span<pricing::StorageTier> day_plan =
          std::span(planned_plan[day - options.start_day]).subspan(first, count);
      {
        MC_OBS_SCOPE("core.decide");
        const util::Stopwatch watch;
        block_policy.decide_day(context, day, simulator.current_tiers(),
                                day_plan);
        block_decide_seconds[b] += watch.seconds();
      }
      MC_OBS_SCOPE("sim.bill");
      simulator.advance(day_plan);
    }
    block_reports[b] = simulator.report();
  };
  {
    MC_OBS_SCOPE("core.plan_region");
    if (options.pool != nullptr) {
      options.pool->parallel_for(0, blocks, plan_block);
    } else {
      plan_block(0);
    }
  }

  MC_OBS_COUNT("core.plan.calls", 1);
  MC_OBS_COUNT("core.plan.files", n);
  MC_OBS_COUNT("core.plan.days", window);
  MC_OBS_COUNT("core.plan.blocks", blocks);
  MC_OBS_COUNT("core.plan_classes", width);
  // Classes per input file in parts per million, summed over calls: 10^6
  // per call means no file repeated another.
  MC_OBS_COUNT("core.class_share",
               n == 0 ? 0 : (width * std::uint64_t{1000000} + n / 2) / n);

  PlanResult result;
  result.policy_name = policy.name();
  result.start_day = options.start_day;
  for (const double seconds : block_decide_seconds)
    result.decision_seconds += seconds;
  if (n > 0)
    result.decide_ns_per_file_day = result.decision_seconds * 1e9 /
                                    static_cast<double>(n * window);
  // The block reports' day sums are exact, so merging them in block order
  // gives the bytes of one simulator over every planned file.
  sim::BillingReport report(width, window);
  for (std::size_t b = 0; b < blocks; ++b)
    report.merge_shard(block_reports[b], block_first(b));
  if (classed) {
    result.report = report.gather(classes.class_of);
    result.plan.reserve(window);
    for (const sim::DayPlan& day_plan : planned_plan) {
      sim::DayPlan expanded(n);
      for (std::size_t i = 0; i < n; ++i)
        expanded[i] = day_plan[classes.class_of[i]];
      result.plan.push_back(std::move(expanded));
    }
  } else {
    result.report = std::move(report);
    result.plan = std::move(planned_plan);
  }
  return result;
}

std::vector<pricing::StorageTier> static_initial_tiers(
    const trace::RequestTrace& trace, const pricing::PricingPolicy& pricing,
    std::size_t observation_days, bool include_archive) {
  if (observation_days == 0 || observation_days > trace.days())
    throw std::invalid_argument("static_initial_tiers: bad observation window");
  std::vector<pricing::StorageTier> tiers(trace.file_count());
  for (std::size_t i = 0; i < trace.file_count(); ++i) {
    const trace::FileRecord& f = trace.files()[i];
    const std::span<const double> reads(f.reads.data(), observation_days);
    const std::span<const double> writes(f.writes.data(), observation_days);
    const double mean_reads = stats::mean(reads);
    const double mean_writes = stats::mean(writes);
    if (include_archive) {
      tiers[i] = sim::best_static_tier(pricing, mean_reads, mean_writes, f.size_gb);
    } else {
      const double hot = sim::file_day_cost_no_change(
                             pricing, pricing::StorageTier::kHot, mean_reads,
                             mean_writes, f.size_gb)
                             .total();
      const double cool = sim::file_day_cost_no_change(
                              pricing, pricing::StorageTier::kCool, mean_reads,
                              mean_writes, f.size_gb)
                              .total();
      tiers[i] = hot <= cool ? pricing::StorageTier::kHot
                             : pricing::StorageTier::kCool;
    }
  }
  return tiers;
}

}  // namespace minicost::core
