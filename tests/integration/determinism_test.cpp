// Determinism: identical seeds produce identical traces, plans, and bills —
// the property every reproducible figure rests on. Since the planning
// pipeline batches and shards across threads, this suite also pins the
// contracts that keep it reproducible: every plan is byte-identical for
// every pool size, and decide_day equals its per-file oracles (A3CAgent::act
// for MiniCost, optimal_sequence for Optimal).
#include <gtest/gtest.h>

#include "evaluation.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/forecast_policy.hpp"
#include "core/greedy.hpp"
#include "core/optimal.hpp"
#include "core/planner.hpp"
#include "core/rl_policy.hpp"
#include "obs/metrics.hpp"
#include "rl/a3c.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace minicost {
namespace {

trace::SyntheticConfig trace_config() {
  trace::SyntheticConfig config;
  config.file_count = 120;
  config.days = 40;
  config.seed = 61;
  return config;
}

TEST(DeterminismTest, SameSeedSameBill) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  double totals[2];
  for (int run = 0; run < 2; ++run) {
    const trace::RequestTrace tr = trace::generate_synthetic(trace_config());
    core::GreedyPolicy greedy;
    core::PlanOptions options;
    options.start_day = 14;
    options.initial_tiers = core::static_initial_tiers(tr, azure, 14);
    totals[run] =
        core::run_policy(tr, azure, greedy, options).report.grand_total().total();
  }
  EXPECT_DOUBLE_EQ(totals[0], totals[1]);
}

TEST(DeterminismTest, OptimalPlanIsIdenticalAcrossRuns) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  sim::HorizonPlan plans[2];
  for (int run = 0; run < 2; ++run) {
    const trace::RequestTrace tr = trace::generate_synthetic(trace_config());
    core::OptimalPolicy optimal;
    core::PlanOptions options;
    options.start_day = 14;
    options.initial_tiers = core::static_initial_tiers(tr, azure, 14);
    plans[run] = core::run_policy(tr, azure, optimal, options).plan;
  }
  EXPECT_EQ(plans[0], plans[1]);
}

TEST(DeterminismTest, SingleWorkerTrainingIsReproducible) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::RequestTrace tr = trace::generate_synthetic(trace_config());
  std::vector<double> probs[2];
  for (int run = 0; run < 2; ++run) {
    rl::A3CConfig config;
    config.filters = 8;
    config.hidden = 8;
    config.workers = 1;
    rl::A3CAgent agent(config, 77);
    rl::TrainOptions options;
    options.episodes = 200;
    options.report_every = 200;
    agent.train(tr, azure, options);
    probs[run] = agent.policy_probabilities(
        agent.featurizer().encode(tr.file(0), 20, pricing::StorageTier::kHot));
  }
  EXPECT_EQ(probs[0], probs[1]);
}

TEST(DeterminismTest, DifferentSeedsProduceDifferentAgents) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const trace::RequestTrace tr = trace::generate_synthetic(trace_config());
  std::vector<double> probs[2];
  for (int run = 0; run < 2; ++run) {
    rl::A3CConfig config;
    config.filters = 8;
    config.hidden = 8;
    config.workers = 1;
    rl::A3CAgent agent(config, 1000 + run);
    probs[run] = agent.policy_probabilities(
        agent.featurizer().encode(tr.file(0), 20, pricing::StorageTier::kHot));
  }
  EXPECT_NE(probs[0], probs[1]);
}

// The 300-file trace every equivalence test plans: wide enough that each
// of a 4-thread pool's file blocks holds many files.
trace::RequestTrace wide_trace() {
  trace::SyntheticConfig tc = trace_config();
  tc.file_count = 300;
  return trace::generate_synthetic(tc);
}

constexpr std::size_t kEquivalenceStart = 15;

sim::HorizonPlan plan_on(const trace::RequestTrace& tr,
                         core::TieringPolicy& policy, util::ThreadPool& pool) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  core::PlanOptions options;
  options.start_day = kEquivalenceStart;
  options.initial_tiers =
      core::static_initial_tiers(tr, azure, kEquivalenceStart);
  options.pool = &pool;
  return core::run_policy(tr, azure, policy, options).plan;
}

// Plans with one instance on a 1-thread pool and a fresh one on a 4-thread
// pool; the plans must be byte-identical. Returns the plan.
template <typename MakePolicy>
sim::HorizonPlan expect_pool_size_independent(const trace::RequestTrace& tr,
                                              MakePolicy make_policy) {
  util::ThreadPool one(1), many(4);
  auto serial = make_policy();
  auto pooled = make_policy();
  const sim::HorizonPlan plan = plan_on(tr, *serial, one);
  EXPECT_EQ(plan, plan_on(tr, *pooled, many)) << "policy " << serial->name();
  return plan;
}

TEST(BatchScalarEquivalenceTest, StaticAndHistoryPolicies) {
  const trace::RequestTrace tr = wide_trace();
  expect_pool_size_independent(tr, [] { return core::make_hot_policy(); });
  expect_pool_size_independent(tr, [] { return core::make_cold_policy(); });
  expect_pool_size_independent(
      tr, [] { return std::make_unique<core::GreedyPolicy>(); });
  expect_pool_size_independent(
      tr, [] { return std::make_unique<core::ClairvoyantGreedyPolicy>(); });

  // Optimal's plan is also each file's own DP sequence.
  const sim::HorizonPlan optimal = expect_pool_size_independent(
      tr, [] { return std::make_unique<core::OptimalPolicy>(); });
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  const std::vector<pricing::StorageTier> initial =
      core::static_initial_tiers(tr, azure, kEquivalenceStart);
  for (trace::FileId f = 0; f < tr.file_count(); ++f) {
    const core::OptimalSequence seq = core::optimal_sequence(
        azure, tr.file(f), kEquivalenceStart, tr.days(), initial[f]);
    for (std::size_t t = 0; t < optimal.size(); ++t)
      EXPECT_EQ(optimal[t][f], seq.tiers[t]) << "file " << f << " day " << t;
  }
}

TEST(BatchScalarEquivalenceTest, StatefulPolicies) {
  expect_pool_size_independent(
      wide_trace(), [] { return std::make_unique<core::ForecastMpcPolicy>(); });
}

TEST(BatchScalarEquivalenceTest, RlPolicyMatchesScalarAct) {
  const trace::RequestTrace tr = wide_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  util::ThreadPool pool(4);
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  rl::A3CAgent agent(config, 77);
  const rl::Featurizer& featurizer = agent.featurizer();
  core::RlPolicy policy(agent);
  const sim::HorizonPlan plan = plan_on(tr, policy, pool);

  // Oracle: the daily loop of per-file act() on the encoded state, tiers
  // carried day to day; every file stays put until a full history exists.
  std::vector<pricing::StorageTier> current =
      core::static_initial_tiers(tr, azure, kEquivalenceStart);
  sim::HorizonPlan reference;
  for (std::size_t day = kEquivalenceStart; day < tr.days(); ++day) {
    sim::DayPlan day_plan = current;
    if (day >= featurizer.history_len()) {
      for (trace::FileId f = 0; f < tr.file_count(); ++f)
        day_plan[f] = pricing::tier_from_index(
            agent.act(featurizer.encode(tr.file(f), day, current[f])));
    }
    current = day_plan;
    reference.push_back(std::move(day_plan));
  }
  EXPECT_EQ(plan, reference);
}

// The headline reproducibility contract: the paper's evaluation — the five
// policies over a trained agent plus MiniCost on the aggregated workload
// ("MiniCost w/E"), the runs fanned out on the pool concurrently, each with
// batched NN planning and parallel billing inside — produces the same bills
// bit for bit whether the pool has one thread or many.
TEST(DeterminismTest, EvaluateIsPoolSizeIndependent) {
  const trace::RequestTrace tr = evaluation::make_trace();
  ASSERT_FALSE(tr.groups().empty());  // the w/E run needs co-request groups
  rl::A3CAgent agent(evaluation::agent_config(), evaluation::kSeed);
  evaluation::train(agent, tr);

  util::ThreadPool one(1), many(4);
  std::map<std::string, evaluation::Outcome> outcomes[2];
  util::ThreadPool* pools[2] = {&one, &many};
  for (int run = 0; run < 2; ++run)
    outcomes[run] = evaluation::run_policies(
        tr, agent, evaluation::kStart, evaluation::kDays, *pools[run]);
  EXPECT_EQ(outcomes[0].size(), 6u);

  ASSERT_EQ(outcomes[0].size(), outcomes[1].size());
  for (const auto& [name, outcome] : outcomes[0]) {
    ASSERT_TRUE(outcomes[1].count(name)) << name;
    const evaluation::Outcome& other = outcomes[1].at(name);
    const sim::BillingReport& a = outcome.result.report;
    const sim::BillingReport& b = other.result.report;
    EXPECT_EQ(a.grand_total().total(), b.grand_total().total())  // bitwise
        << name;
    EXPECT_EQ(outcome.optimal_action_rate, other.optimal_action_rate) << name;
    EXPECT_EQ(outcome.result.plan, other.result.plan) << name;
    // Full cost tables, byte for byte: the Cs/Cr/Cw/Cc decomposition of the
    // grand total, every per-file total, and every per-day breakdown. Any
    // drift here means a parallel reduction picked up a pool-size-dependent
    // FP order.
    EXPECT_EQ(a.grand_total().storage, b.grand_total().storage) << name;
    EXPECT_EQ(a.grand_total().read, b.grand_total().read) << name;
    EXPECT_EQ(a.grand_total().write, b.grand_total().write) << name;
    EXPECT_EQ(a.grand_total().change, b.grand_total().change) << name;
    EXPECT_EQ(a.per_file_totals(), b.per_file_totals()) << name;
    ASSERT_EQ(a.days(), b.days()) << name;
    for (std::size_t d = 0; d < a.days(); ++d) {
      EXPECT_EQ(a.day(d).storage, b.day(d).storage) << name << " day " << d;
      EXPECT_EQ(a.day(d).read, b.day(d).read) << name << " day " << d;
      EXPECT_EQ(a.day(d).write, b.day(d).write) << name << " day " << d;
      EXPECT_EQ(a.day(d).change, b.day(d).change) << name << " day " << d;
      EXPECT_EQ(a.tier_changes_on(d), b.tier_changes_on(d))
          << name << " day " << d;
    }
  }
}

// run_policy's blocks call act_batch from several pool threads at once,
// while other work may keep the pool busy (evaluate() runs the policies
// concurrently on one pool). Each call plans on its own snapshot of the
// actor, so concurrent calls under contention decide exactly as a serial
// call: contention may only change timing, never decisions.
TEST(DeterminismTest, ActBatchIsIdenticalUnderContendedPool) {
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  trace::SyntheticConfig tc = trace_config();
  tc.file_count = 600;  // several 256-row chunks
  const trace::RequestTrace tr = trace::generate_synthetic(tc);

  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 2;
  rl::A3CAgent agent(config, 77);
  rl::TrainOptions options;
  options.episodes = 100;
  options.report_every = 100;
  agent.train(tr, azure, options);

  const std::size_t day = 20;
  const std::vector<pricing::StorageTier> tiers(
      tr.file_count(), pricing::StorageTier::kHot);

  const std::vector<rl::Action> serial =
      agent.act_batch(tr.files(), day, tiers);

  util::ThreadPool pool(4);
  // Contend: a deep queue of short foreign compute tasks keeps every
  // worker busy while the act_batch calls run. Tasks are finite (the
  // pool's waiting threads help drain the queue, so an unbounded task
  // would be executed by the planner itself).
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::future<void>> noise;
  noise.reserve(400);
  for (int i = 0; i < 400; ++i) {
    noise.push_back(pool.submit([&sink, i] {
      std::uint64_t acc = static_cast<std::uint64_t>(i);
      for (int k = 0; k < 20000; ++k) acc = acc * 6364136223846793005ULL + 1;
      sink.fetch_add(acc, std::memory_order_relaxed);
    }));
  }
  std::vector<std::vector<rl::Action>> contended(4);
  pool.parallel_for(0, contended.size(), [&](std::size_t k) {
    contended[k] = agent.act_batch(tr.files(), day, tiers);
  });
  for (auto& f : noise) f.wait();

  for (const std::vector<rl::Action>& actions : contended)
    EXPECT_EQ(serial, actions);
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : obs::Registry::global().counters())
    if (c.name == name) return c.value;
  return 0;
}

// The number of distinct (raw state, tier) keys among `files` on `day`:
// what act_batch must forward, counted here by brute force.
std::size_t distinct_states(const rl::Featurizer& featurizer,
                            std::span<const trace::FileRecord> files,
                            std::size_t day,
                            std::span<const pricing::StorageTier> tiers) {
  std::set<std::vector<std::uint64_t>> keys;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const rl::Featurizer::RawState s = featurizer.raw_state(files[i], day);
    std::vector<std::uint64_t> key;
    for (const double r : s.reads)
      key.push_back(std::bit_cast<std::uint64_t>(r));
    key.push_back(std::bit_cast<std::uint64_t>(s.writes));
    key.push_back(std::bit_cast<std::uint64_t>(s.size_gb));
    key.push_back(pricing::tier_index(tiers[i]));
    keys.insert(std::move(key));
  }
  return keys.size();
}

// A multi-day act_batch plan over a trace with whole request counts (so
// states repeat, within and across act_rows' chunks and partitions), split
// into one contiguous block of files per pool thread as run_policy splits
// it, is the same at every pool size, and each block's call forwards
// exactly the distinct raw states of its own files.
TEST(DeterminismTest, ActBatchForwardsEachDistinctStateOnceAtEveryPoolSize) {
  trace::SyntheticConfig tc = trace_config();
  tc.file_count = 2500;
  tc.integral_counts = true;
  const trace::RequestTrace tr = trace::generate_synthetic(tc);
  const std::span<const trace::FileRecord> files(tr.files());
  const std::size_t n = files.size();
  rl::A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  rl::A3CAgent agent(config, 79);
  const std::size_t first_day = agent.featurizer().history_len();

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  std::vector<std::vector<rl::Action>> plans;
  for (const std::size_t threads : {1, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    const auto block = [&](std::size_t b) {
      return std::pair{b * n / threads, (b + 1) * n / threads - b * n / threads};
    };
    std::vector<pricing::StorageTier> tiers(n, pricing::StorageTier::kHot);
    std::vector<rl::Action> plan;
    std::size_t forwarded = 0;
    for (std::size_t day = first_day; day < first_day + 6; ++day) {
      std::size_t expected = 0;
      for (std::size_t b = 0; b < threads; ++b) {
        const auto [lo, count] = block(b);
        expected += distinct_states(agent.featurizer(),
                                    files.subspan(lo, count), day,
                                    std::span(tiers).subspan(lo, count));
      }
      const std::uint64_t before = counter_value("rl.a3c.act.forward_rows");
      std::vector<rl::Action> actions(n);
      pool.parallel_for(0, threads, [&](std::size_t b) {
        const auto [lo, count] = block(b);
        const std::vector<rl::Action> part =
            agent.act_batch(files.subspan(lo, count), day,
                            std::span(tiers).subspan(lo, count));
        std::copy(part.begin(), part.end(),
                  actions.begin() + static_cast<std::ptrdiff_t>(lo));
      });
      EXPECT_EQ(counter_value("rl.a3c.act.forward_rows") - before, expected)
          << "day " << day;
      forwarded += expected;
      plan.insert(plan.end(), actions.begin(), actions.end());
      for (std::size_t i = 0; i < n; ++i)
        tiers[i] = pricing::tier_from_index(actions[i]);
    }
    // Otherwise the trace would not exercise the dedup at all.
    EXPECT_LT(forwarded, plan.size() / 2);
    plans.push_back(std::move(plan));
  }
  EXPECT_EQ(plans[0], plans[1]);
  EXPECT_EQ(plans[0], plans[2]);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace minicost
