#include "core/greedy.hpp"

#include <gtest/gtest.h>

#include "decide_one.hpp"
#include "sim/cost_model.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

// A trace with one controllable file.
trace::RequestTrace one_file(std::vector<double> reads) {
  std::vector<trace::FileRecord> files;
  const std::size_t days = reads.size();
  trace::FileRecord f;
  f.name = "f";
  f.size_gb = 0.1;
  f.reads = std::move(reads);
  f.writes.assign(days, 0.0);
  files.push_back(std::move(f));
  return trace::RequestTrace(days, std::move(files));
}

TEST(GreedyPolicyTest, UsesYesterdaysObservation) {
  // Day 2 rates are huge but yesterday (day 1) was dead: greedy keeps cool.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 500.0, 500.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(decide_one(greedy, context, 0, 2, StorageTier::kCool),
            StorageTier::kCool);
  // On day 3 it has seen day 2's burst and moves to hot.
  EXPECT_EQ(decide_one(greedy, context, 0, 3, StorageTier::kCool),
            StorageTier::kHot);
}

TEST(GreedyPolicyTest, ClairvoyantSeesTheDecisionDay) {
  const trace::RequestTrace tr = one_file({0.0, 0.0, 500.0, 500.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  ClairvoyantGreedyPolicy oracle;
  EXPECT_EQ(decide_one(oracle, context, 0, 2, StorageTier::kCool),
            StorageTier::kHot);
}

TEST(GreedyPolicyTest, TwoTierGreedyNeverEntersArchive) {
  // The paper's Greedy weighs hot vs cold only.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 6, initial};
  GreedyPolicy greedy;
  StorageTier tier = StorageTier::kCool;
  for (std::size_t day = 1; day < 6; ++day) {
    tier = decide_one(greedy, context, 0, day, tier);
    EXPECT_NE(tier, StorageTier::kArchive);
  }
}

TEST(GreedyPolicyTest, ThreeTierVariantUsesArchiveForDeadFiles) {
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy3(/*include_archive=*/true);
  EXPECT_EQ(decide_one(greedy3, context, 0, 1, StorageTier::kCool),
            StorageTier::kArchive);
}

TEST(GreedyPolicyTest, TwoTierGreedyMayKeepFileAlreadyInArchive) {
  // It never moves a file INTO archive, but an inherited archive placement
  // can persist when leaving costs more than staying.
  const trace::RequestTrace tr = one_file({0.0, 0.0, 0.0, 0.0});
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> initial(1, StorageTier::kArchive);
  const PlanContext context{tr, azure, 1, 4, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(decide_one(greedy, context, 0, 1, StorageTier::kArchive),
            StorageTier::kArchive);
}

TEST(GreedyPolicyTest, ChangeCostCreatesHysteresis) {
  // A rate just above the hot/cool crossover: switching from cool is not
  // worth the change cost for one day, so greedy stays put.
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const double crossover = sim::tier_crossover_reads(
      azure, StorageTier::kHot, StorageTier::kCool, 0.1);
  const double slightly_above = crossover * 1.05;
  const trace::RequestTrace tr =
      one_file({slightly_above, slightly_above, slightly_above});
  const std::vector<StorageTier> initial(1, StorageTier::kCool);
  const PlanContext context{tr, azure, 1, 3, initial};
  GreedyPolicy greedy;
  EXPECT_EQ(decide_one(greedy, context, 0, 1, StorageTier::kCool),
            StorageTier::kCool);
}

TEST(GreedyPolicyTest, DecideDayMatchesScalarDecide) {
  // The pooled daily pass over a wide trace (sharded: over 256 files)
  // equals every file decided alone, on a trace holding just that file.
  trace::SyntheticConfig config;
  config.file_count = 300;
  config.days = 8;
  config.seed = 5;
  const trace::RequestTrace tr = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  std::vector<StorageTier> initial(tr.file_count());
  for (std::size_t f = 0; f < initial.size(); ++f)
    initial[f] = pricing::tier_from_index(f % pricing::kTierCount);
  util::ThreadPool pool(4);
  const PlanContext context{tr, azure, 1, tr.days(), initial, &pool};
  for (const bool archive : {false, true}) {
    GreedyPolicy greedy(archive);
    for (std::size_t day = 1; day < tr.days(); ++day) {
      std::vector<StorageTier> batch(tr.file_count());
      greedy.decide_day(context, day, initial, batch);
      for (trace::FileId f = 0; f < tr.file_count(); ++f) {
        const trace::RequestTrace alone(tr.days(), {tr.file(f)});
        const std::vector<StorageTier> tier{initial[f]};
        const PlanContext single{alone, azure, 1, tr.days(), tier};
        EXPECT_EQ(batch[f], decide_one(greedy, single, 0, day, initial[f]))
            << "file " << f << " day " << day << " archive " << archive;
      }
    }
  }
}

TEST(GreedyPolicyTest, NamesAndKnowledge) {
  EXPECT_EQ(GreedyPolicy().name(), "Greedy");
  EXPECT_EQ(GreedyPolicy(true).name(), "Greedy-3tier");
  EXPECT_EQ(GreedyPolicy().knowledge(), Knowledge::kHistory);
  EXPECT_EQ(ClairvoyantGreedyPolicy().knowledge(), Knowledge::kNextDay);
}

}  // namespace
}  // namespace minicost::core
