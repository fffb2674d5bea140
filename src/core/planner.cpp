#include "core/planner.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"
#include "stats/descriptive.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"

namespace minicost::core {
namespace {

/// The files of a trace partitioned by their planning inputs: two files
/// share a class when their read and write series are byte-equal, their
/// size_gb bits are equal and they start in the same tier. Class ids follow
/// the file order of each class's first file, its representative. Files in
/// a co-request group stay singletons.
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

  std::vector<bool> grouped(n, false);
  for (const trace::CoRequestGroup& group : trace.groups())
    for (const trace::FileId m : group.members)
      if (m < n) grouped[m] = true;

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
  const auto open_class = [&](std::size_t i) {
    const auto id = static_cast<trace::FileId>(classes.representative.size());
    classes.representative.push_back(static_cast<trace::FileId>(i));
    classes.members.push_back(1);
    classes.class_of[i] = id;
    return id;
  };
  // Open addressing; a slot holds 1 + a class id, or 0.
  const std::size_t mask = std::bit_ceil(2 * n) - 1;
  std::vector<trace::FileId> slots(mask + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (grouped[i]) {
      open_class(i);
      continue;
    }
    for (std::size_t slot = hashes[i] & mask;; slot = (slot + 1) & mask) {
      if (slots[slot] == 0) {
        slots[slot] = open_class(i) + 1;
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

/// A copy of the classes' representatives, groups remapped to them (a
/// grouped file is always its own class's representative).
trace::RequestTrace representatives_trace(const trace::RequestTrace& trace,
                                          const FileClasses& classes) {
  std::vector<trace::FileRecord> files;
  files.reserve(classes.representative.size());
  for (const trace::FileId rep : classes.representative)
    files.push_back(trace.files()[rep]);
  std::vector<trace::CoRequestGroup> groups = trace.groups();
  for (trace::CoRequestGroup& group : groups)
    for (trace::FileId& m : group.members)
      if (m < classes.class_of.size()) m = classes.class_of[m];
  return trace::RequestTrace(trace.days(), std::move(files), std::move(groups));
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
  const trace::RequestTrace& planned = classed ? representatives : trace;
  const std::vector<pricing::StorageTier>& planned_initial =
      classed ? representative_initial : initial;
  const std::size_t width = planned.file_count();

  const PlanContext context{planned, pricing,         options.start_day,
                            end_day, planned_initial, options.pool};
  {
    // prepare() is where forecasting policies fit their models (ARIMA,
    // seasonal-naive), Optimal runs its DP and the RL policy warms its
    // featurizer.
    MC_OBS_SCOPE("core.prepare");
    policy.prepare(context);
  }

  PlanResult result;
  result.policy_name = policy.name();
  result.start_day = options.start_day;
  const std::size_t window = end_day - options.start_day;
  result.plan.reserve(window);
  result.day_seconds.reserve(window);

  MC_OBS_COUNT("core.plan.calls", 1);
  MC_OBS_COUNT("core.plan.files", n);
  MC_OBS_COUNT("core.plan.days", window);
  MC_OBS_COUNT("core.plan_classes", width);
  // Classes per input file in parts per million, summed over calls: 10^6
  // per call means no file repeated another.
  MC_OBS_COUNT("core.class_share",
               n == 0 ? 0 : (width * std::uint64_t{1000000} + n / 2) / n);

  // Bills only the window's days of the full trace; its current tiers are
  // each representative's tier entering the next day.
  sim::SimulatorOptions sim_options;
  sim_options.initial_tiers = planned_initial;
  sim_options.charge_initial_placement = options.charge_initial_placement;
  sim_options.start_day = options.start_day;
  sim_options.end_day = end_day;
  sim_options.members = classes.members;
  sim_options.pool = &plan_pool(context);
  sim::StorageSimulator simulator(planned, pricing, std::move(sim_options));

  for (std::size_t day = options.start_day; day < end_day; ++day) {
    sim::DayPlan day_plan(width);
    {
      MC_OBS_SCOPE("core.decide");
      util::Stopwatch watch;
      // The whole day goes through the batch API; policies fan the per-file
      // work out over context.pool (see TieringPolicy::decide_day).
      policy.decide_day(context, day, simulator.current_tiers(), day_plan);
      result.day_seconds.push_back(watch.seconds());
    }
    result.decision_seconds += result.day_seconds.back();
    {
      MC_OBS_SCOPE("sim.bill");
      simulator.advance(day_plan);
    }
    if (classed) {
      sim::DayPlan expanded(n);
      for (std::size_t i = 0; i < n; ++i)
        expanded[i] = day_plan[classes.class_of[i]];
      day_plan = std::move(expanded);
    }
    result.plan.push_back(std::move(day_plan));
  }
  result.report = classed ? simulator.report().gather(classes.class_of)
                          : simulator.report();
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
