// Instrumentation must never perturb results: the same planning run with obs
// enabled and disabled must produce byte-identical billing reports, down the
// monolithic path and the shard-streamed path. This is the pin that keeps
// MC_OBS_* write-only with respect to billed/decided values.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "core/greedy.hpp"
#include "core/planner.hpp"
#include "core/plan_driver.hpp"
#include "obs/metrics.hpp"
#include "pricing/policy.hpp"
#include "sim/billing.hpp"
#include "store/trace_reader.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"

namespace minicost {
namespace {

trace::RequestTrace small_trace() {
  trace::SyntheticConfig config;
  config.file_count = 300;
  config.days = 40;
  config.seed = 7;
  return trace::generate_synthetic(config);
}

// This test's own byte-identity oracle: memcmp of the grand total, equal
// tier-change counts, equal per-file totals. It stays independent of
// sim::bitwise_equal, the definition `minicost plan --compare` uses.
void expect_identical(const sim::BillingReport& a, const sim::BillingReport& b,
                      std::size_t file_count) {
  const auto& total_a = a.grand_total();
  const auto& total_b = b.grand_total();
  EXPECT_EQ(std::memcmp(&total_a, &total_b, sizeof total_a), 0);
  EXPECT_EQ(a.tier_changes(), b.tier_changes());
  for (std::size_t f = 0; f < file_count; ++f)
    ASSERT_EQ(a.file_total(f), b.file_total(f)) << "file " << f;
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { obs::set_enabled(true); }
};

TEST_F(ObsDeterminismTest, RunPolicyBillsAreIdenticalEnabledVsDisabled) {
  const trace::RequestTrace tr = small_trace();
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  core::PlanOptions options;
  options.start_day = 5;
  options.initial_tiers = core::static_initial_tiers(tr, prices, 5);

  obs::set_enabled(true);
  core::GreedyPolicy instrumented;
  const core::PlanResult with_obs =
      core::run_policy(tr, prices, instrumented, options);

  obs::set_enabled(false);
  core::GreedyPolicy plain;
  const core::PlanResult without_obs =
      core::run_policy(tr, prices, plain, options);

  ASSERT_EQ(with_obs.plan.size(), without_obs.plan.size());
  EXPECT_EQ(with_obs.plan, without_obs.plan);  // decisions, not just bills
  expect_identical(with_obs.report, without_obs.report, tr.file_count());
}

TEST_F(ObsDeterminismTest, ShardedBillsAreIdenticalEnabledVsDisabled) {
  const std::filesystem::path mct =
      std::filesystem::temp_directory_path() / "obs_determinism_test.mct";
  store::pack_trace(small_trace(), mct);
  const store::TraceReader reader(mct);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  core::PlanDriverOptions options;
  options.shard_files = 64;
  options.start_day = 5;
  options.release_shard_pages = true;  // exercises the instrumented madvise

  obs::set_enabled(true);
  core::GreedyPolicy instrumented;
  const core::PlanDriverRun with_obs =
      core::PlanDriver(reader, prices, instrumented, options).run();

  obs::set_enabled(false);
  core::GreedyPolicy plain;
  const core::PlanDriverRun without_obs =
      core::PlanDriver(reader, prices, plain, options).run();

  EXPECT_EQ(with_obs.shard_count, without_obs.shard_count);
  expect_identical(with_obs.report, without_obs.report, reader.file_count());
  std::filesystem::remove(mct);
}

TEST_F(ObsDeterminismTest, MetricsAreObservedButNeverReadBack) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with MINICOST_OBS=OFF";
  // Sanity check on the instrumentation itself: an instrumented run did
  // record work volume, proving the identical bills above were produced
  // with live instrumentation rather than a silently disabled build.
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const trace::RequestTrace tr = small_trace();
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();
  core::GreedyPolicy policy;
  core::PlanOptions options;
  options.start_day = 5;
  (void)core::run_policy(tr, prices, policy, options);

  EXPECT_EQ(obs::Registry::global().counter("core.plan.calls").value(),
            1u);
  EXPECT_EQ(obs::Registry::global().counter("core.plan.files").value(),
            tr.file_count());
  // One decide and one bill scope per planned day.
  EXPECT_EQ(obs::Registry::global().timer("core.decide").stats().count,
            tr.days() - 5);
  EXPECT_EQ(obs::Registry::global().timer("sim.bill").stats().count,
            tr.days() - 5);
}

}  // namespace
}  // namespace minicost
