#include "core/optimal.hpp"

#include <gtest/gtest.h>

#include "../sim/file_sequence_cost.hpp"
#include "decide_one.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace minicost::core {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

trace::FileRecord random_file(util::Rng& rng, std::size_t days) {
  trace::FileRecord f;
  f.name = "f";
  f.size_gb = rng.uniform(0.01, 0.5);
  f.reads.resize(days);
  f.writes.resize(days);
  for (std::size_t t = 0; t < days; ++t) {
    // Mix of regimes: dead days, mid traffic, hot bursts.
    const double coin = rng.next_double();
    f.reads[t] = coin < 0.4 ? rng.uniform(0.0, 0.2)
                 : coin < 0.8 ? rng.uniform(0.2, 3.0)
                              : rng.uniform(3.0, 50.0);
    f.writes[t] = 0.02 * f.reads[t] + 0.05;
  }
  return f;
}

// The DESIGN.md property: the DP returns exactly the brute-force optimum.
// This is the proof that OptimalPolicy *is* the paper's offline
// "brutal-force" baseline.
class DpVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(DpVsExhaustive, DpMatchesBruteForce) {
  util::Rng rng(100 + GetParam());
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::size_t days = 3 + GetParam() % 5;  // 3..7 days -> up to 3^7
  const trace::FileRecord f = random_file(rng, days);
  const auto initial = pricing::tier_from_index(GetParam() % 3);

  const OptimalSequence dp = optimal_sequence(azure, f, 0, days, initial);
  const OptimalSequence brute = exhaustive_sequence(azure, f, 0, days, initial);
  EXPECT_NEAR(dp.cost, brute.cost, 1e-12);
  // The plans may differ only on exact ties; their billed costs must match.
  EXPECT_NEAR(sim::file_sequence_cost(azure, f, dp.tiers, initial, true),
              sim::file_sequence_cost(azure, f, brute.tiers, initial, true),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpVsExhaustive,
                         ::testing::Range(0, 24));

TEST(OptimalSequenceTest, CostMatchesSimulatorBilling) {
  util::Rng rng(7);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const trace::FileRecord f = random_file(rng, 10);
  const OptimalSequence seq =
      optimal_sequence(azure, f, 0, 10, StorageTier::kHot);
  EXPECT_NEAR(seq.cost,
              sim::file_sequence_cost(azure, f, seq.tiers, StorageTier::kHot,
                                      /*charge_initial=*/true),
              1e-12);
}

TEST(OptimalSequenceTest, NoWorseThanAnyStaticAssignment) {
  util::Rng rng(9);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  for (int trial = 0; trial < 10; ++trial) {
    const trace::FileRecord f = random_file(rng, 14);
    const OptimalSequence seq =
        optimal_sequence(azure, f, 0, 14, StorageTier::kHot);
    for (StorageTier t : pricing::all_tiers()) {
      const std::vector<StorageTier> static_plan(14, t);
      EXPECT_LE(seq.cost, sim::file_sequence_cost(azure, f, static_plan,
                                                  StorageTier::kHot, true) +
                              1e-12);
    }
  }
}

TEST(OptimalSequenceTest, ChargeInitialFlagMatters) {
  util::Rng rng(11);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  trace::FileRecord f;
  f.size_gb = 0.1;
  f.reads.assign(5, 0.0);  // dead file: optimal is archive
  f.writes.assign(5, 0.0);
  const OptimalSequence charged =
      optimal_sequence(azure, f, 0, 5, StorageTier::kHot, true);
  const OptimalSequence free =
      optimal_sequence(azure, f, 0, 5, StorageTier::kHot, false);
  EXPECT_NEAR(charged.cost - free.cost,
              azure.change_cost(StorageTier::kHot, StorageTier::kArchive, 0.1),
              1e-12);
}

TEST(OptimalSequenceTest, WindowValidation) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  trace::FileRecord f;
  f.size_gb = 0.1;
  f.reads.assign(5, 1.0);
  f.writes.assign(5, 0.0);
  EXPECT_THROW(optimal_sequence(azure, f, 3, 3, StorageTier::kHot),
               std::invalid_argument);
  EXPECT_THROW(optimal_sequence(azure, f, 0, 9, StorageTier::kHot),
               std::invalid_argument);
  EXPECT_THROW(exhaustive_sequence(azure, f, 0, 20, StorageTier::kHot),
               std::invalid_argument);  // window too long for brute force
}

TEST(OptimalPolicyTest, PreparedPlanMatchesPerFileDp) {
  trace::SyntheticConfig config;
  config.file_count = 50;
  config.days = 20;
  config.seed = 17;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(50, StorageTier::kHot);
  const PlanContext context{tr, azure, 5, 20, initial};

  OptimalPolicy policy;
  policy.prepare(context);
  for (trace::FileId f = 0; f < 50; ++f) {
    const OptimalSequence seq =
        optimal_sequence(azure, tr.file(f), 5, 20, StorageTier::kHot);
    for (std::size_t day = 5; day < 20; ++day) {
      EXPECT_EQ(decide_one(policy, context, f, day, StorageTier::kHot),
                seq.tiers[day - 5]);
    }
  }
}

TEST(OptimalPolicyTest, DecideOutsideWindowThrows) {
  trace::SyntheticConfig config;
  config.file_count = 5;
  config.days = 20;
  config.seed = 19;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(5, StorageTier::kHot);
  const PlanContext context{tr, azure, 5, 15, initial};
  OptimalPolicy policy;
  policy.prepare(context);
  EXPECT_THROW(decide_one(policy, context, 0, 2, StorageTier::kHot),
               std::out_of_range);
  EXPECT_THROW(decide_one(policy, context, 0, 17, StorageTier::kHot),
               std::out_of_range);
}

TEST(OptimalPolicyTest, KnowledgeIsFullTrace) {
  OptimalPolicy policy;
  EXPECT_EQ(policy.knowledge(), Knowledge::kFullTrace);
  EXPECT_EQ(policy.name(), "Optimal");
}

TEST(OptimalPolicyTest, DecideDayCopiesPrecomputedSequences) {
  util::Rng rng(7);
  const std::size_t days = 6;
  std::vector<trace::FileRecord> files;
  for (int i = 0; i < 4; ++i) files.push_back(random_file(rng, days));
  const trace::RequestTrace tr(days, std::move(files));
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(4, StorageTier::kHot);
  const PlanContext context{tr, azure, 1, days, initial};
  OptimalPolicy policy;
  policy.prepare(context);
  for (std::size_t day = 1; day < days; ++day) {
    std::vector<StorageTier> batch(4);
    policy.decide_day(context, day, initial, batch);
    for (trace::FileId f = 0; f < 4; ++f) {
      const OptimalSequence seq =
          optimal_sequence(azure, tr.file(f), 1, days, initial[f]);
      EXPECT_EQ(batch[f], seq.tiers[day - 1])
          << "file " << f << " day " << day;
    }
  }
  // Outside the prepared window decide_day throws.
  std::vector<StorageTier> batch(4);
  EXPECT_THROW(policy.decide_day(context, days + 1, initial, batch),
               std::out_of_range);
}

}  // namespace
}  // namespace minicost::core
