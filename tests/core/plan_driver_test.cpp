// PlanDriver: residency (one policy instance warm across runs), incremental
// dirty-shard re-planning spliced from cached per-shard bills, and the
// per-file decision-latency percentiles — all pinned against the monolithic
// run_policy reference bit for bit (DESIGN.md §11).

#include "core/plan_driver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>

#include "core/greedy.hpp"
#include "core/rl_policy.hpp"
#include "rl/a3c.hpp"
#include "store/trace_writer.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const sim::BillingReport& a,
                      const sim::BillingReport& b) {
  ASSERT_EQ(a.days(), b.days());
  ASSERT_EQ(a.file_count(), b.file_count());
  const sim::CostBreakdown& ta = a.grand_total();
  const sim::CostBreakdown& tb = b.grand_total();
  EXPECT_EQ(bits(ta.storage), bits(tb.storage));
  EXPECT_EQ(bits(ta.read), bits(tb.read));
  EXPECT_EQ(bits(ta.write), bits(tb.write));
  EXPECT_EQ(bits(ta.change), bits(tb.change));
  for (std::size_t f = 0; f < a.file_count(); ++f)
    EXPECT_EQ(bits(a.file_total(f)), bits(b.file_total(f)));
  EXPECT_EQ(a.tier_changes(), b.tier_changes());
}

/// Greedy wrapped with a prepare() counter: prepare runs once per planned
/// shard, so the count pins both "the instance is reused across runs" and
/// "clean shards are spliced, not re-planned".
class CountingGreedy final : public TieringPolicy {
 public:
  std::string name() const override { return inner_.name(); }
  Knowledge knowledge() const noexcept override {
    return inner_.knowledge();
  }
  void prepare(const PlanContext& context) override {
    ++prepare_calls;
    inner_.prepare(context);
  }
  void decide_day(const PlanContext& context, std::size_t day,
                  std::span<const pricing::StorageTier> current,
                  std::span<pricing::StorageTier> out_plan) override {
    inner_.decide_day(context, day, current, out_plan);
  }

  std::size_t prepare_calls = 0;

 private:
  GreedyPolicy inner_;
};

class PlanDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("minicost_plan_driver_" + std::to_string(::getpid()) + ".mct");
    trace::SyntheticConfig config;
    config.file_count = 61;  // not a multiple of the shard size
    config.days = 10;
    config.seed = 23;
    store::pack_trace(trace::generate_synthetic(config), path_);
    reader_ = std::make_unique<store::TraceReader>(path_);
    prices_ = pricing::PricingPolicy::azure_2020();
  }
  void TearDown() override {
    reader_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  PlanResult monolithic(std::size_t start_day) {
    const trace::RequestTrace whole = reader_->materialize();
    GreedyPolicy policy;
    PlanOptions options;
    options.start_day = start_day;
    if (start_day > 0)
      options.initial_tiers = static_initial_tiers(whole, prices_, start_day);
    return run_policy(whole, prices_, policy, options);
  }

  PlanDriverOptions driver_options(std::size_t shard_files) const {
    PlanDriverOptions options;
    options.shard_files = shard_files;
    options.start_day = 3;
    return options;
  }

  std::filesystem::path path_;
  std::unique_ptr<store::TraceReader> reader_;
  pricing::PricingPolicy prices_;
};

TEST_F(PlanDriverTest, RunMatchesMonolithic) {
  const PlanResult reference = monolithic(3);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    GreedyPolicy policy;
    PlanDriverOptions options = driver_options(7);
    options.pool = &pool;
    PlanDriver driver(*reader_, prices_, policy, options);
    const PlanDriverRun run = driver.run();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run.shard_count, 9u);  // ceil(61 / 7)
    EXPECT_EQ(run.replanned_shards, 9u);
    expect_identical(run.report, reference.report);
  }
}

TEST_F(PlanDriverTest, CleanReplanSplicesEverythingFromCache) {
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, policy, driver_options(7));
  const PlanDriverRun full = driver.run();
  EXPECT_EQ(driver.dirty_shard_count(), 0u);

  const PlanDriverRun spliced = driver.replan();
  EXPECT_EQ(spliced.replanned_shards, 0u);
  EXPECT_EQ(spliced.decision_seconds, 0.0);
  EXPECT_EQ(spliced.file_decide_p50_ns, 0.0);
  expect_identical(spliced.report, full.report);
}

TEST_F(PlanDriverTest, DirtySubsetReplanIsByteIdenticalToFullRun) {
  const PlanResult reference = monolithic(3);
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, policy, driver_options(7));
  driver.run();

  // Files 10..24 live in shards 1..3 (width 7).
  driver.mark_dirty(10, 15);
  EXPECT_EQ(driver.dirty_shard_count(), 3u);
  const PlanDriverRun replan = driver.replan();
  EXPECT_EQ(replan.replanned_shards, 3u);
  EXPECT_EQ(driver.dirty_shard_count(), 0u);
  expect_identical(replan.report, reference.report);

  // The tail file lands in the short last shard.
  driver.mark_dirty(60, 1);
  const PlanDriverRun tail = driver.replan();
  EXPECT_EQ(tail.replanned_shards, 1u);
  expect_identical(tail.report, reference.report);
}

TEST_F(PlanDriverTest, MarkDirtyValidatesTheFileRange) {
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, policy, driver_options(7));
  EXPECT_THROW(driver.mark_dirty(55, 7), std::out_of_range);
  EXPECT_THROW(driver.mark_dirty(61, 1), std::out_of_range);
  EXPECT_NO_THROW(driver.mark_dirty(61, 0));  // empty range, even at the end
  EXPECT_NO_THROW(driver.mark_dirty(60, 1));
}

TEST_F(PlanDriverTest, PolicyInstanceStaysWarmAcrossRuns) {
  CountingGreedy policy;
  PlanDriver driver(*reader_, prices_, policy, driver_options(7));

  driver.run();
  EXPECT_EQ(policy.prepare_calls, 9u);  // one per shard

  driver.replan();  // clean: pure splice
  EXPECT_EQ(policy.prepare_calls, 9u);

  driver.mark_dirty(0, 1);
  driver.replan();  // one dirty shard
  EXPECT_EQ(policy.prepare_calls, 10u);

  driver.run();  // full re-plan reuses the same instance
  EXPECT_EQ(policy.prepare_calls, 19u);
}

TEST_F(PlanDriverTest, ReportsLatencyPercentilesAndTimings) {
  GreedyPolicy policy;
  PlanDriver driver(*reader_, prices_, policy, driver_options(7));
  const PlanDriverRun run = driver.run();
  EXPECT_GT(run.wall_seconds, 0.0);
  EXPECT_GT(run.decision_seconds, 0.0);
  EXPECT_GT(run.file_decide_p50_ns, 0.0);
  EXPECT_GE(run.file_decide_p99_ns, run.file_decide_p50_ns);
  EXPECT_EQ(run.start_day, 3u);
  EXPECT_EQ(run.policy_name, policy.name());
}

// The RL policy behind the driver: every cell of shard sizes x pool sizes
// must bill bit-identically to monolithic run_policy, and so must an
// incremental replan of a dirty file range.
TEST(PlanDriverRlTest, MatchesMonolithicAcrossShardsPoolsAndReplans) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("minicost_plan_driver_rl_" + std::to_string(::getpid()) + ".mct");
  trace::SyntheticConfig config;
  config.file_count = 53;  // not a multiple of the shard size
  config.days = 40;
  config.seed = 31;
  store::pack_trace(trace::generate_synthetic(config), path);
  const store::TraceReader reader(path);
  const pricing::PricingPolicy prices = pricing::PricingPolicy::azure_2020();

  rl::A3CConfig agent_config;
  agent_config.filters = 8;
  agent_config.hidden = 8;
  agent_config.workers = 1;
  rl::A3CAgent agent(agent_config, 11);
  RlPolicy policy(agent);

  constexpr std::size_t kStartDay = 20;
  const trace::RequestTrace whole = reader.materialize();
  PlanOptions monolithic;
  monolithic.start_day = kStartDay;
  monolithic.initial_tiers = static_initial_tiers(whole, prices, kStartDay);
  const PlanResult reference = run_policy(whole, prices, policy, monolithic);

  for (const std::size_t shard_files : {std::size_t{7}, std::size_t{0}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool pool(threads);
      PlanDriverOptions options;
      options.start_day = kStartDay;
      options.shard_files = shard_files;
      options.pool = &pool;
      PlanDriver driver(reader, prices, policy, options);
      const PlanDriverRun run = driver.run();
      SCOPED_TRACE("shard_files=" + std::to_string(shard_files) +
                   " threads=" + std::to_string(threads));
      expect_identical(run.report, reference.report);

      // Files [10, 15) sit in shards 1 and 2 of 7-file shards.
      driver.mark_dirty(10, 5);
      const PlanDriverRun replan = driver.replan();
      EXPECT_EQ(replan.replanned_shards, shard_files == 7 ? 2u : 1u);
      expect_identical(replan.report, reference.report);
    }
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

TEST_F(PlanDriverTest, RejectsBadWindows) {
  GreedyPolicy policy;
  PlanDriverOptions options;
  options.start_day = 10;  // == days
  EXPECT_THROW(PlanDriver(*reader_, prices_, policy, options),
               std::invalid_argument);
  options.start_day = 0;
  options.end_day = 11;
  EXPECT_THROW(PlanDriver(*reader_, prices_, policy, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace minicost::core
