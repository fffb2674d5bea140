#include "core/rl_policy.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/planner.hpp"
#include "decide_one.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

trace::RequestTrace make_trace() {
  trace::SyntheticConfig config;
  config.file_count = 40;
  config.days = 40;
  config.seed = 101;
  return trace::generate_synthetic(config);
}

rl::A3CAgent make_agent() {
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  return rl::A3CAgent(config, 11);
}

TEST(RlPolicyTest, NameAndKnowledge) {
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  EXPECT_EQ(policy.name(), "MiniCost");
  EXPECT_EQ(policy.knowledge(), Knowledge::kHistory);
}

TEST(RlPolicyTest, StaysPutBeforeFullHistory) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  const std::vector<pricing::StorageTier> initial(tr.file_count(),
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 0, tr.days(), initial};
  EXPECT_EQ(decide_one(policy, context, 0, 3, pricing::StorageTier::kCool),
            pricing::StorageTier::kCool);
}

TEST(RlPolicyTest, GreedyDecisionsAreDeterministic) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult a = run_policy(tr, azure, policy, options);
  const PlanResult b = run_policy(tr, azure, policy, options);
  EXPECT_EQ(a.plan, b.plan);
}

TEST(RlPolicyTest, DecideDayMatchesScalarDecide) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent);
  const std::vector<pricing::StorageTier> current(tr.file_count(),
                                                  pricing::StorageTier::kCool);
  const PlanContext context{tr, azure, 14, tr.days(), current};
  // Before the history warmup the batch path must also hold tiers.
  std::vector<pricing::StorageTier> batch(tr.file_count());
  policy.decide_day(context, 3, current, batch);
  EXPECT_EQ(batch, current);
  // After warmup: one act_batch call equals the per-file act loop.
  policy.decide_day(context, 25, current, batch);
  for (trace::FileId f = 0; f < tr.file_count(); ++f)
    EXPECT_EQ(batch[f],
              pricing::tier_from_index(agent.act(
                  agent.featurizer().encode(tr.file(f), 25, current[f]))))
        << "file " << f;
}

TEST(RlPolicyTest, OwnedAgentFromOptionsDecidesLikeBorrowedAgent) {
  // make_rl_policy builds its own agent from the options and loads the
  // checkpoint over the seed's initialization.
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  const auto checkpoint =
      std::filesystem::temp_directory_path() /
      ("minicost_rl_policy_" + std::to_string(::getpid()) + ".txt");
  agent.save(checkpoint);
  RlPolicyOptions options;
  options.agent = agent.config();
  options.seed = 99;
  options.checkpoint = checkpoint;
  const std::unique_ptr<TieringPolicy> owned = make_rl_policy(options);
  std::filesystem::remove(checkpoint);
  RlPolicy borrowed(agent);
  EXPECT_EQ(owned->name(), "MiniCost");

  PlanOptions plan_options;
  plan_options.start_day = 20;
  EXPECT_EQ(run_policy(tr, azure, *owned, plan_options).plan,
            run_policy(tr, azure, borrowed, plan_options).plan);
}

// Wider than act_batch's 256-row chunk, so the pool really splits days.
trace::RequestTrace make_wide_trace() {
  trace::SyntheticConfig config;
  config.file_count = 600;
  config.days = 40;
  config.seed = 77;
  return trace::generate_synthetic(config);
}

void expect_pooled_plan_matches_serial(bool greedy) {
  const trace::RequestTrace tr = make_wide_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  util::ThreadPool serial_pool(1);
  util::ThreadPool pool(4);
  RlPolicy policy(agent, greedy);
  PlanOptions options;
  options.start_day = 20;
  options.pool = &serial_pool;
  const PlanResult serial = run_policy(tr, azure, policy, options);
  options.pool = &pool;
  const PlanResult pooled = run_policy(tr, azure, policy, options);
  EXPECT_EQ(serial.plan, pooled.plan);
  EXPECT_EQ(serial.report.grand_total().total(),
            pooled.report.grand_total().total());
}

TEST(RlPolicyTest, PooledPlanIsBitIdenticalToSerial) {
  expect_pooled_plan_matches_serial(/*greedy=*/true);
}

TEST(RlPolicyTest, PooledPlanMatchesSerialWhenSampling) {
  // Sampling forks one rng stream per decision state, so the split across
  // pool workers must not change which action each row samples.
  expect_pooled_plan_matches_serial(/*greedy=*/false);
}

TEST(RlPolicyTest, SampledModeStillProducesValidTiers) {
  const trace::RequestTrace tr = make_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  rl::A3CAgent agent = make_agent();
  RlPolicy policy(agent, /*greedy=*/false);
  PlanOptions options;
  options.start_day = 20;
  const PlanResult result = run_policy(tr, azure, policy, options);
  for (const auto& day_plan : result.plan) {
    for (pricing::StorageTier t : day_plan) {
      EXPECT_LT(pricing::tier_index(t), pricing::kTierCount);
    }
  }
}

}  // namespace
}  // namespace minicost::core
