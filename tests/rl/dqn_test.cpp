#include "rl/dqn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "stats/descriptive.hpp"
#include "trace/synthetic.hpp"

namespace minicost::rl {
namespace {

trace::RequestTrace small_trace(std::size_t files = 80) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 81;
  return trace::generate_synthetic(config);
}

DqnConfig tiny_config() {
  DqnConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.min_replay = 64;
  config.batch_size = 16;
  return config;
}

TEST(DqnTest, ConstructionValidatesConfig) {
  DqnConfig config = tiny_config();
  config.batch_size = 0;
  EXPECT_THROW(DqnAgent(config, 1), std::invalid_argument);
  config = tiny_config();
  config.replay_capacity = 4;  // < batch size
  EXPECT_THROW(DqnAgent(config, 1), std::invalid_argument);
  config = tiny_config();
  config.gamma = -0.1;
  EXPECT_THROW(DqnAgent(config, 1), std::invalid_argument);
}

TEST(DqnTest, QValuesHaveActionWidth) {
  DqnAgent agent(tiny_config(), 3);
  const trace::RequestTrace tr = small_trace();
  const auto features =
      agent.featurizer().encode(tr.file(0), 20, pricing::StorageTier::kHot);
  EXPECT_EQ(agent.q_values(features).size(), kActionCount);
  EXPECT_LT(agent.act(features), kActionCount);
}

TEST(DqnTest, TrainingFillsReplayAndSteps) {
  DqnAgent agent(tiny_config(), 5);
  const trace::RequestTrace tr = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  agent.train(tr, azure, /*episodes=*/100);
  EXPECT_GT(agent.replay_size(), 500u);
  EXPECT_GT(agent.gradient_steps(), 100u);
}

TEST(DqnTest, ReplayBufferIsBounded) {
  DqnConfig config = tiny_config();
  config.replay_capacity = 300;
  DqnAgent agent(config, 7);
  const trace::RequestTrace tr = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  agent.train(tr, azure, /*episodes=*/80);
  EXPECT_LE(agent.replay_size(), 300u);
}

TEST(DqnTest, LearnsArchiveForQuietFiles) {
  DqnAgent agent(tiny_config(), 9);
  const trace::RequestTrace tr = small_trace(120);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  agent.train(tr, azure, /*episodes=*/1500);

  trace::FileId quiet = 0;
  double best = 1e18;
  for (trace::FileId i = 0; i < tr.file_count(); ++i) {
    const double mean = stats::mean(tr.file(i).reads);
    if (mean < best) {
      best = mean;
      quiet = i;
    }
  }
  // From archive, a near-dead file should stay in archive under the
  // learned Q function.
  EXPECT_EQ(agent.act(tr.file(quiet), 30, pricing::StorageTier::kArchive),
            pricing::tier_index(pricing::StorageTier::kArchive));
}

TEST(DqnTest, DeterministicForSameSeed) {
  const trace::RequestTrace tr = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  std::vector<double> q[2];
  for (int run = 0; run < 2; ++run) {
    DqnAgent agent(tiny_config(), 42);
    agent.train(tr, azure, 60);
    q[run] = agent.q_values(
        agent.featurizer().encode(tr.file(0), 20, pricing::StorageTier::kHot));
  }
  EXPECT_EQ(q[0], q[1]);
}

TEST(DqnAgentTest, TrainedQValuesMatchPinnedDigest) {
  // The Q-network's kernels may be reblocked or batched, but never reorder
  // one accumulator's additions (DESIGN.md §7), so the trained network must
  // answer bit-for-bit what it did when this digest was recorded. 150
  // episodes of up to 14 steps start updates after the 64-transition warm-up,
  // sync the target network three times (every 500 gradient steps) and
  // replay terminal transitions (empty next_state, zero bootstrap).
  const trace::RequestTrace tr = small_trace(200);
  DqnAgent agent(tiny_config(), 31);
  agent.train(tr, pricing::PricingPolicy::azure_2020(), /*episodes=*/150);
  ASSERT_GE(agent.gradient_steps(), 3 * DqnConfig{}.target_sync_every);
  // FNV-1a over the bits of Q(s, ·) at 200 fixed states: every file, a
  // spread of days, every current tier.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (trace::FileId i = 0; i < tr.file_count(); ++i) {
    const auto tier = pricing::tier_from_index(i % 3);
    for (const double q : agent.q_values(
             agent.featurizer().encode(tr.file(i), 20 + i % 40, tier)))
      h = (h ^ std::bit_cast<std::uint64_t>(q)) * 0x100000001B3ULL;
  }
  EXPECT_EQ(h, 0x59669da557117ae3ULL) << "digest=0x" << std::hex << h;
}

}  // namespace
}  // namespace minicost::rl
