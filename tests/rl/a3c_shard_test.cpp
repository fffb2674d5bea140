// Sharded parameter-server contract tests (DESIGN.md §14):
//   * the final parameters are a pure function of (seed, episode count) —
//     byte-identical across shard counts at every worker count, and
//     run-to-run deterministic even with many workers;
//   * episode RNG streams derive only from the lifetime ordinal and can
//     never alias the agent's other stream families.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <unistd.h>

#include "rl/a3c.hpp"
#include "rl/stream.hpp"
#include "trace/synthetic.hpp"

namespace minicost::rl {
namespace {

trace::RequestTrace small_trace(std::size_t files = 60) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 12;
  return trace::generate_synthetic(config);
}

A3CConfig shard_config(std::size_t workers, std::size_t shards) {
  A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = workers;
  config.param_shards = shards;
  return config;
}

std::string train_and_serialize(const A3CConfig& config, std::uint64_t seed,
                                std::size_t episodes, const char* tag) {
  A3CAgent agent(config, seed);
  const trace::RequestTrace trace = small_trace();
  TrainOptions options;
  options.episodes = episodes;
  options.report_every = episodes;
  agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
  const auto path = std::filesystem::temp_directory_path() /
                    ("minicost_shard_" + std::to_string(::getpid()) + "_" +
                     tag + ".txt");
  agent.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(A3CShardTest, ShardedIsByteIdenticalToSingleLockAcrossWorkerCounts) {
  // The wavefront schedule keys on (episode ordinal, worker window) only,
  // and the optimizers are element-wise, so splitting the parameter vector
  // into more locked slices must not move a single bit — at any worker
  // count, including heavy oversubscription (8 workers on any host).
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const std::string single =
        train_and_serialize(shard_config(workers, 1), 17, 150, "s1");
    ASSERT_FALSE(single.empty());
    for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
      const std::string sharded =
          train_and_serialize(shard_config(workers, shards), 17, 150, "sN");
      EXPECT_EQ(single, sharded)
          << "workers=" << workers << " shards=" << shards;
    }
  }
}

TEST(A3CShardTest, MultiWorkerTrainingIsRunToRunDeterministic) {
  // New with the wavefront protocol: multi-worker training is reproducible,
  // not just single-worker (the pre-sharding scheduler let thread timing
  // pick which worker's stream ran which episode).
  const std::string first =
      train_and_serialize(shard_config(8, 4), 23, 150, "r1");
  const std::string second =
      train_and_serialize(shard_config(8, 4), 23, 150, "r2");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(A3CShardTest, ShardCountIsValidated) {
  A3CConfig config = shard_config(1, 0);
  EXPECT_THROW(A3CAgent(config, 1), std::invalid_argument);
  config.param_shards = 65;
  EXPECT_THROW(A3CAgent(config, 1), std::invalid_argument);
  config.param_shards = 64;  // more shards than some layers have parameters
  EXPECT_NO_THROW(A3CAgent(config, 1));
}

TEST(A3CStreamTest, EpisodeStreamsAreInjective) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t ordinal = 0; ordinal < 4096; ++ordinal)
    seen.insert(episode_stream(ordinal));
  EXPECT_EQ(seen.size(), 4096u);
  // Worker/shard reconfiguration cannot re-deal streams: the derivation has
  // no other inputs, so equal ordinals map to equal streams...
  EXPECT_EQ(episode_stream(7), episode_stream(7));
  // ...and distant ordinals (different train() calls, different rounds)
  // stay distinct.
  EXPECT_NE(episode_stream(0), episode_stream(1'000'000));
}

TEST(A3CStreamTest, EpisodeStreamsNeverAliasLegacyFamilies) {
  // The legacy families move with runtime counters (env steps, racing
  // candidates); even extreme counter values stay below the tag byte.
  const std::uint64_t huge_counter = 1ULL << 40;
  EXPECT_EQ((kActStreamBase + huge_counter) >> 56, 0u);
  EXPECT_EQ((kRacingStreamBase + huge_counter) >> 56, 0u);
  EXPECT_EQ(kInitStream >> 56, 0u);
  for (std::uint64_t ordinal : {std::uint64_t{0}, std::uint64_t{1} << 32,
                                (std::uint64_t{1} << 56) - 1}) {
    EXPECT_EQ(episode_stream(ordinal) >> 56, kEpisodeStreamTag)
        << "ordinal " << ordinal;
  }
}

}  // namespace
}  // namespace minicost::rl
