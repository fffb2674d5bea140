#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "file_sequence_cost.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::sim {
namespace {

using pricing::PricingPolicy;
using pricing::StorageTier;

trace::RequestTrace make_trace() {
  std::vector<trace::FileRecord> files;
  files.push_back({"a", 0.1, {10.0, 20.0, 5.0}, {0.1, 0.1, 0.1}});
  files.push_back({"b", 0.2, {0.1, 0.1, 0.1}, {0.0, 0.0, 0.0}});
  return trace::RequestTrace(3, std::move(files));
}

HorizonPlan constant_plan(std::size_t days, std::size_t files, StorageTier tier) {
  return HorizonPlan(days, DayPlan(files, tier));
}

TEST(SimulatorTest, BillsConstantPlanPerCostModel) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const BillingReport report = simulate(
      trace, azure, constant_plan(3, 2, StorageTier::kHot));

  double expected = 0.0;
  for (const auto& f : trace.files()) {
    for (std::size_t t = 0; t < 3; ++t) {
      expected += file_day_cost_no_change(azure, StorageTier::kHot, f.reads[t],
                                          f.writes[t], f.size_gb)
                      .total();
    }
  }
  EXPECT_NEAR(report.grand_total().total(), expected, 1e-12);
  EXPECT_EQ(report.tier_changes(), 0u);
}

TEST(SimulatorTest, InitialPlacementFreeByDefault) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  // Plan puts everything in cool although the simulator starts in hot; the
  // day-0 move must not charge Cc by default.
  const BillingReport report =
      simulate(trace, azure, constant_plan(3, 2, StorageTier::kCool));
  EXPECT_DOUBLE_EQ(report.grand_total().change, 0.0);
  EXPECT_EQ(report.tier_changes(), 2u);  // still counted as movements
}

TEST(SimulatorTest, InitialPlacementChargedWhenConfigured) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.charge_initial_placement = true;
  const BillingReport report =
      simulate(trace, azure, constant_plan(3, 2, StorageTier::kCool), options);
  const double expected_change =
      azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1) +
      azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.2);
  EXPECT_NEAR(report.grand_total().change, expected_change, 1e-15);
}

TEST(SimulatorTest, MidHorizonChangesAreCharged) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  HorizonPlan plan = constant_plan(3, 2, StorageTier::kHot);
  plan[1][0] = StorageTier::kCool;  // file 0 moves on day 1...
  plan[2][0] = StorageTier::kHot;   // ...and back on day 2.
  const BillingReport report = simulate(trace, azure, plan);
  EXPECT_NEAR(report.grand_total().change,
              2.0 * azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1),
              1e-15);
  EXPECT_EQ(report.tier_changes(), 2u);
}

TEST(SimulatorTest, PerFileInitialTiersRespected) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.initial_tiers = {StorageTier::kCool, StorageTier::kArchive};
  options.charge_initial_placement = true;
  // Plan keeps each file in its initial tier: no changes at all.
  HorizonPlan plan(3, DayPlan{StorageTier::kCool, StorageTier::kArchive});
  const BillingReport report = simulate(trace, azure, plan, options);
  EXPECT_DOUBLE_EQ(report.grand_total().change, 0.0);
  EXPECT_EQ(report.tier_changes(), 0u);
}

TEST(SimulatorTest, InitialTiersWidthMismatchThrows) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.initial_tiers = {StorageTier::kHot};  // trace has 2 files
  EXPECT_THROW(StorageSimulator(trace, azure, options), std::invalid_argument);
}

TEST(SimulatorTest, AdvanceValidatesPlanWidthAndHorizon) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  StorageSimulator sim(trace, azure);
  EXPECT_THROW(sim.advance(DayPlan(1, StorageTier::kHot)), std::invalid_argument);
  for (int d = 0; d < 3; ++d) sim.advance(DayPlan(2, StorageTier::kHot));
  EXPECT_THROW(sim.advance(DayPlan(2, StorageTier::kHot)), std::out_of_range);
}

TEST(SimulatorTest, ResetRestoresInitialState) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  StorageSimulator sim(trace, azure);
  sim.advance(DayPlan(2, StorageTier::kCool));
  sim.reset();
  EXPECT_EQ(sim.current_day(), 0u);
  EXPECT_EQ(sim.current_tiers()[0], StorageTier::kHot);
  EXPECT_DOUBLE_EQ(sim.report().grand_total().total(), 0.0);
}

TEST(SimulatorTest, FileSequenceCostMatchesSimulator) {
  const trace::RequestTrace trace = make_trace();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const std::vector<StorageTier> seq{StorageTier::kHot, StorageTier::kCool,
                                     StorageTier::kCool};
  // Bill only file 0 through the simulator by keeping file 1 constant and
  // subtracting its standalone cost.
  HorizonPlan plan(3, DayPlan{StorageTier::kHot, StorageTier::kHot});
  for (std::size_t t = 0; t < 3; ++t) plan[t][0] = seq[t];
  const BillingReport report = simulate(trace, azure, plan);
  const double file1_cost = [&] {
    double total = 0.0;
    const auto& f = trace.file(1);
    for (std::size_t t = 0; t < 3; ++t)
      total += file_day_cost_no_change(azure, StorageTier::kHot, f.reads[t],
                                       f.writes[t], f.size_gb)
                   .total();
    return total;
  }();
  const double via_sequence = file_sequence_cost(azure, trace.file(0), seq,
                                                 StorageTier::kHot);
  EXPECT_NEAR(report.grand_total().total() - file1_cost, via_sequence, 1e-12);
}

TEST(SimulatorTest, ChargeInitialInSequenceCost) {
  const PricingPolicy azure = PricingPolicy::azure_2020();
  trace::FileRecord f{"x", 0.1, {1.0}, {0.0}};
  const std::vector<StorageTier> seq{StorageTier::kCool};
  const double without = file_sequence_cost(azure, f, seq, StorageTier::kHot,
                                            /*charge_initial=*/false);
  const double with = file_sequence_cost(azure, f, seq, StorageTier::kHot,
                                         /*charge_initial=*/true);
  EXPECT_NEAR(with - without,
              azure.change_cost(StorageTier::kHot, StorageTier::kCool, 0.1),
              1e-15);
}

/// The two-phase bill the simulator used to run, kept as the oracle: price
/// every file-day, then charge the report one file at a time in file order.
BillingReport two_phase_bill(const trace::RequestTrace& trace,
                             const PricingPolicy& prices,
                             const HorizonPlan& plan, StorageTier initial,
                             bool charge_initial) {
  BillingReport report(trace.file_count(), plan.size());
  std::vector<StorageTier> tiers(trace.file_count(), initial);
  for (std::size_t d = 0; d < plan.size(); ++d) {
    DayPartial changes;
    for (std::size_t i = 0; i < trace.file_count(); ++i) {
      const trace::FileRecord& f = trace.file(static_cast<trace::FileId>(i));
      CostBreakdown cost = file_day_cost_no_change(
          prices, plan[d][i], f.reads[d], f.writes[d], f.size_gb);
      if (plan[d][i] != tiers[i]) {
        if (d > 0 || charge_initial)
          cost.change = prices.change_cost(tiers[i], plan[d][i], f.size_gb);
        ++changes.tier_changes;
        tiers[i] = plan[d][i];
      }
      report.charge(static_cast<trace::FileId>(i), d, cost);
    }
    report.add_day(d, changes);
  }
  return report;
}

/// A plan whose tiers vary by file and day, so change costs and counters
/// show up on every day.
HorizonPlan mixed_plan(std::size_t days, std::size_t files) {
  HorizonPlan plan(days, DayPlan(files));
  for (std::size_t d = 0; d < days; ++d)
    for (std::size_t i = 0; i < files; ++i)
      plan[d][i] = static_cast<StorageTier>((i * 7 + d * (i % 5)) % 3);
  return plan;
}

// run_policy bills each block of files on its own simulator over a view of
// the block, concurrently, and merges the block reports in block order:
// every split, on pools of every size, bills the bytes of one serial pass.
TEST(SimulatorTest, ParallelBillingIsByteIdenticalToSerial) {
  trace::SyntheticConfig config;
  config.file_count = 1100;
  config.days = 4;
  config.seed = 99;
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  const std::size_t n = trace.file_count();
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const HorizonPlan plan = mixed_plan(config.days, n);

  for (const bool charge_initial : {false, true}) {
    const BillingReport oracle = two_phase_bill(
        trace, azure, plan, StorageTier::kHot, charge_initial);
    SimulatorOptions options;
    options.charge_initial_placement = charge_initial;
    EXPECT_TRUE(bitwise_equal(simulate(trace, azure, plan, options), oracle));
    for (const std::size_t threads : {1, 2, 3, 4}) {
      util::ThreadPool pool(threads);
      for (const std::size_t blocks : {1, 2, 3, 7}) {
        std::vector<BillingReport> parts(blocks);
        pool.parallel_for(0, blocks, [&](std::size_t b) {
          const std::size_t first = b * n / blocks;
          const std::size_t count = (b + 1) * n / blocks - first;
          StorageSimulator sim(trace::TraceView(trace).subview(first, count),
                               azure, options);
          for (const DayPlan& day : plan)
            sim.advance(std::span(day).subspan(first, count));
          parts[b] = sim.report();
        });
        BillingReport merged(n, plan.size());
        for (std::size_t b = 0; b < blocks; ++b)
          merged.merge_shard(parts[b], b * n / blocks);
        EXPECT_TRUE(bitwise_equal(merged, oracle))
            << "charge_initial " << charge_initial << " threads " << threads
            << " blocks " << blocks;
      }
    }
  }
}

// A file billed with members[i] = k adds k of its charges and tier changes
// to the day sums, and one file's to its own total: billing each distinct
// file once, weighted, gives the bytes of billing every copy.
TEST(SimulatorTest, MembersBillLikeRepeatedFiles) {
  trace::SyntheticConfig config;
  config.file_count = 2100;
  config.days = 5;
  config.seed = 5;
  const trace::RequestTrace distinct = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  std::vector<std::uint32_t> members(distinct.file_count());
  std::vector<trace::FileRecord> copies;
  std::vector<trace::FileId> source_of;
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i] = static_cast<std::uint32_t>(1 + i % 4);
    for (std::uint32_t c = 0; c < members[i]; ++c) {
      copies.push_back(distinct.files()[i]);
      source_of.push_back(static_cast<trace::FileId>(i));
    }
  }
  const trace::RequestTrace repeated(config.days, std::move(copies));
  const HorizonPlan plan = mixed_plan(config.days, distinct.file_count());
  HorizonPlan repeated_plan;
  for (const DayPlan& day : plan) {
    DayPlan wide;
    for (const trace::FileId i : source_of) wide.push_back(day[i]);
    repeated_plan.push_back(std::move(wide));
  }

  SimulatorOptions options;
  options.charge_initial_placement = true;
  const BillingReport oracle = simulate(repeated, azure, repeated_plan, options);
  options.members = members;
  const BillingReport weighted = simulate(distinct, azure, plan, options);
  EXPECT_TRUE(bitwise_equal(weighted.gather(source_of), oracle));

  SimulatorOptions bad;
  bad.members.assign(distinct.file_count() + 1, 1);
  EXPECT_THROW(StorageSimulator(distinct, azure, bad), std::invalid_argument);
}

TEST(SimulatorTest, BillingWindowReadsTheTraceInPlace) {
  trace::SyntheticConfig config;
  config.file_count = 1100;
  config.days = 12;
  config.seed = 7;
  const trace::RequestTrace trace = trace::generate_synthetic(config);
  const PricingPolicy azure = PricingPolicy::azure_2020();
  const HorizonPlan plan = mixed_plan(5, trace.file_count());

  SimulatorOptions windowed;
  windowed.charge_initial_placement = true;
  const BillingReport oracle =
      simulate(trace.window(4, 5), azure, plan, windowed);

  SimulatorOptions options = windowed;
  options.start_day = 4;
  options.end_day = 9;
  StorageSimulator sim(trace, azure, options);
  sim.run(plan);
  EXPECT_EQ(sim.report().days(), 5u);
  EXPECT_TRUE(bitwise_equal(sim.report(), oracle));
  EXPECT_THROW(sim.advance(plan[0]), std::out_of_range);
}

TEST(SimulatorTest, RejectsABillingWindowOutsideTheTrace) {
  const trace::RequestTrace trace = make_trace();  // 3 days
  const PricingPolicy azure = PricingPolicy::azure_2020();
  SimulatorOptions options;
  options.end_day = 4;
  EXPECT_THROW(StorageSimulator(trace, azure, options), std::invalid_argument);
  options.start_day = 3;
  options.end_day = 2;
  EXPECT_THROW(StorageSimulator(trace, azure, options), std::invalid_argument);
  options.start_day = 1;
  options.end_day = 0;  // through the trace's end
  EXPECT_EQ(StorageSimulator(trace, azure, options).report().days(), 2u);
}

}  // namespace
}  // namespace minicost::sim
