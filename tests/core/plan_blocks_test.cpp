// run_policy's file blocks: the planned files split into contiguous blocks,
// one per pool thread, each planned over the whole window on its own policy
// clone and billed by its own simulator, and the block reports merge in
// block order. For every in-tree policy, on whole-count (classed),
// fractional (all-distinct) and grouped input, every pool size (block
// count) must give the plan and the bill of one block on the calling
// thread, bit for bit.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

constexpr std::size_t kStartDay = 16;

trace::RequestTrace synthetic(bool integral_counts, double grouped_fraction) {
  trace::SyntheticConfig config;
  config.file_count = 90;
  config.days = 30;
  config.seed = 43;
  config.integral_counts = integral_counts;
  config.grouped_file_fraction = grouped_fraction;
  return trace::generate_synthetic(config);
}

/// Every in-tree policy, fresh; the RL policy borrows `agent`.
std::vector<std::unique_ptr<TieringPolicy>> every_policy(rl::A3CAgent& agent) {
  std::vector<std::unique_ptr<TieringPolicy>> all;
  all.push_back(make_hot_policy());
  all.push_back(make_cold_policy());
  all.push_back(std::make_unique<GreedyPolicy>());
  all.push_back(std::make_unique<ClairvoyantGreedyPolicy>());
  all.push_back(std::make_unique<ForecastMpcPolicy>());
  all.push_back(std::make_unique<OptimalPolicy>());
  all.push_back(std::make_unique<RlPolicy>(agent));
  return all;
}

rl::A3CAgent make_agent() {
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  return rl::A3CAgent(config, 13);
}

TEST(PlanBlocksTest, EveryPoolSizePlansAsOneBlock) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  const std::vector<std::pair<std::string, trace::RequestTrace>> inputs = {
      {"whole-count", synthetic(true, 0.0)},
      {"fractional", synthetic(false, 0.0)},
      {"grouped", synthetic(true, 0.3)},
  };
  util::ThreadPool one(1), two(2), three(3), four(4), eight(8);
  for (const auto& [input, tr] : inputs) {
    PlanOptions options;
    options.start_day = kStartDay;
    options.initial_tiers = static_initial_tiers(tr, azure, kStartDay);
    for (const std::unique_ptr<TieringPolicy>& policy : every_policy(agent)) {
      options.pool = nullptr;
      const PlanResult reference = run_policy(tr, azure, *policy, options);
      for (util::ThreadPool* pool : {&one, &two, &three, &four, &eight}) {
        SCOPED_TRACE(input + " " + policy->name() + " pool " +
                     std::to_string(pool->size()));
        options.pool = pool;
        const PlanResult got = run_policy(tr, azure, *policy, options);
        EXPECT_EQ(got.plan, reference.plan);
        EXPECT_TRUE(sim::bitwise_equal(got.report, reference.report));
      }
    }
  }
}

// A pool plans one block per thread, never more blocks than files; no pool,
// or a 0-file trace, plans one block.
TEST(PlanBlocksTest, BlockCountIsThePoolSizeAndNeverExceedsTheFiles) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::RequestTrace tr = synthetic(false, 0.0);
  const trace::RequestTrace three_files(
      tr.days(), std::vector<trace::FileRecord>(tr.files().begin(),
                                                tr.files().begin() + 3));
  const trace::RequestTrace empty(tr.days(), {});
  util::ThreadPool four(4), eight(8);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto blocks = [&](const trace::RequestTrace& trace,
                          util::ThreadPool* pool) {
    obs::Registry::global().reset();
    PlanOptions options;
    options.start_day = kStartDay;
    options.pool = pool;
    GreedyPolicy greedy;
    (void)run_policy(trace, azure, greedy, options);
    return obs::Registry::global().counter("core.plan.blocks").value();
  };
  EXPECT_EQ(blocks(tr, nullptr), 1u);
  EXPECT_EQ(blocks(tr, &four), 4u);
  EXPECT_EQ(blocks(tr, &eight), 8u);
  EXPECT_EQ(blocks(three_files, &four), 3u);
  EXPECT_EQ(blocks(empty, &four), 1u);
  obs::set_enabled(was_enabled);
}

// run_policy never prepares or calls the policy it is given, only clones of
// it, so one policy object can plan several traces at once.
TEST(PlanBlocksTest, OnePolicyPlansConcurrentlyThroughItsClones) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::RequestTrace a = synthetic(true, 0.0);
  const trace::RequestTrace b = synthetic(false, 0.3);
  OptimalPolicy optimal;
  PlanOptions options;
  options.start_day = kStartDay;
  const PlanResult want_a = run_policy(a, azure, optimal, options);
  const PlanResult want_b = run_policy(b, azure, optimal, options);
  util::ThreadPool outer(2), inner(2);
  std::vector<PlanResult> got(2);
  options.pool = &inner;
  outer.parallel_for(0, 2, [&](std::size_t i) {
    got[i] = run_policy(i == 0 ? a : b, azure, optimal, options);
  });
  EXPECT_EQ(got[0].plan, want_a.plan);
  EXPECT_EQ(got[1].plan, want_b.plan);
  EXPECT_TRUE(sim::bitwise_equal(got[0].report, want_a.report));
  EXPECT_TRUE(sim::bitwise_equal(got[1].report, want_b.report));
}

}  // namespace
}  // namespace minicost::core
