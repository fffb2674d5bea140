// The class contract of run_policy: it plans and bills one representative
// per class of files with identical inputs (reads, writes, size, initial
// tier; grouped files stay singletons) and hands plans and bills back per
// file. For every in-tree policy, at every pool size, the result must be
// the bytes of planning every file: prepare/decide_day over the full trace,
// billed by sim::simulate over all n files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/plan_driver.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

using pricing::StorageTier;

constexpr std::size_t kDays = 40;
constexpr std::size_t kStartDay = 15;

trace::RequestTrace synthetic(std::size_t files, bool integral_counts,
                              double grouped_fraction = 0.3) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = kDays;
  config.seed = 17;
  config.integral_counts = integral_counts;
  config.grouped_file_fraction = grouped_fraction;
  return trace::generate_synthetic(config);
}

/// A trace of `files` copies of one busy file (its counts vary by day).
trace::RequestTrace identical(std::size_t files) {
  trace::FileRecord f;
  f.name = "same";
  f.size_gb = 0.25;
  for (std::size_t d = 0; d < kDays; ++d) {
    f.reads.push_back(static_cast<double>((d * 7) % 11));
    f.writes.push_back(static_cast<double>(d % 3));
  }
  return trace::RequestTrace(kDays, std::vector<trace::FileRecord>(files, f));
}

/// Builds every in-tree policy fresh. The RL policies borrow `agent`.
struct Policies {
  rl::A3CAgent agent = [] {
    rl::A3CConfig config;
    config.filters = 8;
    config.hidden = 8;
    config.workers = 1;
    return rl::A3CAgent(config, 11);
  }();

  std::vector<std::unique_ptr<TieringPolicy>> make() {
    std::vector<std::unique_ptr<TieringPolicy>> all;
    all.push_back(make_hot_policy());
    all.push_back(make_cold_policy());
    all.push_back(std::make_unique<GreedyPolicy>());
    all.push_back(std::make_unique<ClairvoyantGreedyPolicy>());
    all.push_back(std::make_unique<OptimalPolicy>());
    all.push_back(std::make_unique<ForecastMpcPolicy>());
    all.push_back(std::make_unique<RlPolicy>(agent, /*greedy=*/true));
    all.push_back(std::make_unique<RlPolicy>(agent, /*greedy=*/false));
    return all;
  }
};

std::string label(const TieringPolicy& policy, std::size_t index) {
  // The two RL policies share a name; the index tells them apart.
  return policy.name() + "#" + std::to_string(index);
}

/// The unclassed oracle: every file through prepare/decide_day, and the
/// finished plan billed by sim::simulate over all files.
PlanResult plan_every_file(const trace::RequestTrace& trace,
                           const pricing::PricingPolicy& pricing,
                           TieringPolicy& policy, const PlanOptions& options) {
  const std::size_t n = trace.file_count();
  const std::size_t end_day =
      options.end_day == 0 ? trace.days() : options.end_day;
  const std::vector<StorageTier> initial =
      options.initial_tiers.empty()
          ? std::vector<StorageTier>(n, options.default_initial_tier)
          : options.initial_tiers;
  const PlanContext context{trace,   pricing, options.start_day,
                            end_day, initial, options.pool};
  policy.prepare(context);
  PlanResult result;
  std::vector<StorageTier> current = initial;
  for (std::size_t day = options.start_day; day < end_day; ++day) {
    sim::DayPlan plan(n);
    policy.decide_day(context, day, current, plan);
    current = plan;
    result.plan.push_back(std::move(plan));
  }
  sim::SimulatorOptions sim_options;
  sim_options.initial_tiers = initial;
  sim_options.charge_initial_placement = options.charge_initial_placement;
  sim_options.start_day = options.start_day;
  sim_options.end_day = end_day;
  sim_options.pool = options.pool;
  result.report = sim::simulate(trace, pricing, result.plan, sim_options);
  return result;
}

/// Runs every policy at pools 1 and 4 through run_policy and through the
/// oracle, and requires equal plans and bitwise-equal bills.
void expect_matches_oracle(const trace::RequestTrace& trace,
                           PlanOptions options, const std::string& input) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  Policies policies;
  util::ThreadPool one(1), four(4);
  for (util::ThreadPool* pool : {&one, &four}) {
    options.pool = pool;
    std::vector<std::unique_ptr<TieringPolicy>> classed = policies.make();
    std::vector<std::unique_ptr<TieringPolicy>> oracle = policies.make();
    for (std::size_t p = 0; p < classed.size(); ++p) {
      const std::string where = input + " " + label(*classed[p], p) +
                                " pool " + std::to_string(pool->size());
      const PlanResult got = run_policy(trace, azure, *classed[p], options);
      const PlanResult want =
          plan_every_file(trace, azure, *oracle[p], options);
      EXPECT_EQ(got.plan, want.plan) << where;
      EXPECT_TRUE(sim::bitwise_equal(got.report, want.report)) << where;
      EXPECT_EQ(got.report.file_count(), trace.file_count()) << where;
    }
  }
}

/// Classes run_policy planned for `trace` with the Hot policy (needs obs).
std::uint64_t planned_classes(const trace::RequestTrace& trace,
                              const PlanOptions& options) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  auto hot = make_hot_policy();
  (void)run_policy(trace, azure, *hot, options);
  return obs::Registry::global().counter("core.plan_classes").value();
}

PlanOptions window_options() {
  PlanOptions options;
  options.start_day = kStartDay;
  return options;
}

TEST(PlanClassesTest, WholeCountTraceMatchesPlanningEveryFile) {
  const trace::RequestTrace tr = synthetic(1200, /*integral_counts=*/true);
  PlanOptions options = window_options();
  options.initial_tiers = static_initial_tiers(
      tr, pricing::PricingPolicy::azure_2020(), kStartDay);
  expect_matches_oracle(tr, options, "whole-count");
  if (obs::kCompiledIn) {
    const std::uint64_t classes = planned_classes(tr, options);
    EXPECT_LT(classes, tr.file_count());  // the input does repeat files
    EXPECT_GT(classes, 1u);
  }
}

TEST(PlanClassesTest, AllDistinctTraceMatchesPlanningEveryFile) {
  const trace::RequestTrace tr = synthetic(1200, /*integral_counts=*/false);
  expect_matches_oracle(tr, window_options(), "all-distinct");
  if (obs::kCompiledIn) {
    EXPECT_EQ(planned_classes(tr, window_options()), tr.file_count());
  }
}

// Every file twice: classes of two, more of them than the simulator's
// parallel-billing grain, so the weighted bill runs on the pool.
TEST(PlanClassesTest, EveryFileTwiceMatchesPlanningEveryFile) {
  const trace::RequestTrace distinct = synthetic(2100, false, 0.0);
  trace::RequestTrace tr = distinct;
  for (const trace::FileRecord& f : distinct.files())
    tr.mutable_files().push_back(f);
  expect_matches_oracle(tr, window_options(), "every file twice");
  if (obs::kCompiledIn) {
    EXPECT_EQ(planned_classes(tr, window_options()), distinct.file_count());
  }
}

TEST(PlanClassesTest, IdenticalFilesPlanAsOneClass) {
  const trace::RequestTrace tr = identical(1100);
  expect_matches_oracle(tr, window_options(), "identical");
  if (obs::kCompiledIn) {
    EXPECT_EQ(planned_classes(tr, window_options()), 1u);
    EXPECT_EQ(obs::Registry::global().counter("core.class_share").value(),
              (1000000u + tr.file_count() / 2) / tr.file_count());
  }
}

// Pairs of files that differ in exactly one input the class key must see:
// each pair must split into two classes, and every file keeps its own bill.
TEST(PlanClassesTest, FilesDifferingInOneInputAreNotClassedTogether) {
  const trace::RequestTrace base = identical(2);
  const auto with = [&](const std::function<void(trace::FileRecord&)>& edit) {
    trace::RequestTrace tr = base;
    edit(tr.mutable_files()[1]);
    return tr;
  };
  const std::vector<std::pair<std::string, trace::RequestTrace>> inputs = {
      {"one write on one day",
       with([](trace::FileRecord& f) { f.writes[kStartDay + 3] += 1.0; })},
      {"-0.0 reads", with([](trace::FileRecord& f) {
         for (double& r : f.reads)
           if (r == 0.0) r = -0.0;
       })},
      {"1 ulp of size_gb", with([](trace::FileRecord& f) {
         f.size_gb = std::nextafter(f.size_gb, 1.0);
       })},
  };
  for (const auto& [what, tr] : inputs) {
    expect_matches_oracle(tr, window_options(), what);
    if (obs::kCompiledIn) {
      EXPECT_EQ(planned_classes(tr, window_options()), 2u) << what;
    }
  }

  // Byte-equal series, different initial tiers.
  PlanOptions options = window_options();
  options.initial_tiers = {StorageTier::kHot, StorageTier::kCool};
  expect_matches_oracle(base, options, "initial tier");
  if (obs::kCompiledIn) {
    EXPECT_EQ(planned_classes(base, options), 2u);
  }
}

TEST(PlanClassesTest, GroupedFilesStaySingletons) {
  trace::RequestTrace tr = identical(6);
  tr.mutable_groups().push_back({{1, 4}, std::vector<double>(kDays, 0.5)});
  expect_matches_oracle(tr, window_options(), "grouped");
  // Files 0, 2, 3 and 5 share a class; files 1 and 4 are their own.
  if (obs::kCompiledIn) {
    EXPECT_EQ(planned_classes(tr, window_options()), 3u);
  }
}

TEST(PlanClassesTest, EmptyTracePlansToAnEmptyBill) {
  const trace::RequestTrace tr(kDays, {});
  expect_matches_oracle(tr, window_options(), "0 files");
}

// Metamorphic: appending a copy of file j gives the copy file j's plan and
// per-file total, and leaves every other file's plan and total as it was.
TEST(PlanClassesTest, DuplicatingAFileDuplicatesItsPlanAndTotal) {
  const trace::RequestTrace tr = synthetic(300, /*integral_counts=*/false);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  Policies policies;
  util::ThreadPool four(4);
  PlanOptions options = window_options();
  options.pool = &four;
  for (const trace::FileId j : {trace::FileId{0}, trace::FileId{123}}) {
    trace::RequestTrace twice = tr;
    twice.mutable_files().push_back(tr.file(j));
    std::vector<std::unique_ptr<TieringPolicy>> a = policies.make();
    std::vector<std::unique_ptr<TieringPolicy>> b = policies.make();
    for (std::size_t p = 0; p < a.size(); ++p) {
      const std::string where = label(*a[p], p) + " file " + std::to_string(j);
      const PlanResult once = run_policy(tr, azure, *a[p], options);
      const PlanResult dup = run_policy(twice, azure, *b[p], options);
      ASSERT_EQ(dup.plan.size(), once.plan.size()) << where;
      for (std::size_t d = 0; d < once.plan.size(); ++d) {
        EXPECT_EQ(dup.plan[d].back(), once.plan[d][j]) << where;
        EXPECT_TRUE(std::equal(once.plan[d].begin(), once.plan[d].end(),
                               dup.plan[d].begin()))
            << where;
      }
      const std::vector<double>& totals = once.report.per_file_totals();
      const std::vector<double>& dup_totals = dup.report.per_file_totals();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dup_totals.back()),
                std::bit_cast<std::uint64_t>(totals[j]))
          << where;
      EXPECT_TRUE(std::equal(totals.begin(), totals.end(), dup_totals.begin(),
                             [](double x, double y) {
                               return std::bit_cast<std::uint64_t>(x) ==
                                      std::bit_cast<std::uint64_t>(y);
                             }))
          << where;
    }
  }
}

// PlanDriver classes each shard on its own; at every shard size the bill
// must still be the unclassed oracle's over the whole store.
TEST(PlanClassesTest, ShardedPlansMatchPlanningEveryFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("minicost_plan_classes_" + std::to_string(::getpid()) + ".mct");
  store::pack_trace(synthetic(300, /*integral_counts=*/true), path);
  {
    const store::TraceReader reader(path);
    const trace::RequestTrace whole = reader.materialize();
    const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
    PlanOptions options = window_options();
    options.initial_tiers = static_initial_tiers(whole, azure, kStartDay);
    Policies policies;
    std::vector<std::unique_ptr<TieringPolicy>> oracle = policies.make();
    std::vector<std::unique_ptr<TieringPolicy>> sharded = policies.make();
    util::ThreadPool one(1), four(4);
    for (std::size_t p = 0; p < oracle.size(); ++p) {
      options.pool = &one;
      const PlanResult want =
          plan_every_file(whole, azure, *oracle[p], options);
      for (util::ThreadPool* pool : {&one, &four}) {
        for (const std::size_t shard : {std::size_t{0}, std::size_t{7},
                                        std::size_t{128}}) {
          PlanDriverOptions driver_options;
          driver_options.shard_files = shard;
          driver_options.start_day = kStartDay;
          driver_options.pool = pool;
          PlanDriver driver(reader, azure, *sharded[p], driver_options);
          EXPECT_TRUE(sim::bitwise_equal(driver.run().report, want.report))
              << label(*sharded[p], p) << " shard " << shard << " pool "
              << pool->size();
        }
      }
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace minicost::core
