#include "rl/a3c.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <unistd.h>

#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "rl/stream.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace minicost::rl {
namespace {

trace::RequestTrace small_trace(std::size_t files = 60) {
  trace::SyntheticConfig config;
  config.file_count = files;
  config.days = 62;
  config.seed = 12;
  return trace::generate_synthetic(config);
}

A3CConfig tiny_config() {
  A3CConfig config;
  config.filters = 8;
  config.hidden = 8;
  config.workers = 1;
  return config;
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : obs::Registry::global().counters())
    if (c.name == name) return c.value;
  return 0;
}

// `count` rows of `width` random features, distinct with overwhelming
// probability; wide enough a range that an untrained actor's argmax varies.
std::vector<double> random_rows(std::size_t count, std::size_t width,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> rows(count * width);
  for (double& value : rows) value = rng.uniform(-4.0, 4.0);
  return rows;
}

// The rows source[0], source[1], ... of `palette`, densely packed.
std::vector<double> gather_rows(const std::vector<double>& palette,
                                const std::vector<std::size_t>& source,
                                std::size_t width) {
  std::vector<double> rows;
  rows.reserve(source.size() * width);
  for (const std::size_t s : source) {
    const auto row = palette.begin() + static_cast<std::ptrdiff_t>(s * width);
    rows.insert(rows.end(), row, row + static_cast<std::ptrdiff_t>(width));
  }
  return rows;
}

TEST(A3CAgentTest, ConstructionValidatesConfig) {
  A3CConfig config = tiny_config();
  config.workers = 0;
  EXPECT_THROW(A3CAgent(config, 1), std::invalid_argument);
  config = tiny_config();
  config.episode_len = 0;
  EXPECT_THROW(A3CAgent(config, 1), std::invalid_argument);
  config = tiny_config();
  config.gamma = 1.5;
  EXPECT_THROW(A3CAgent(config, 1), std::invalid_argument);
}

TEST(A3CAgentTest, PolicyProbabilitiesAreDistribution) {
  A3CAgent agent(tiny_config(), 3);
  const trace::RequestTrace trace = small_trace();
  const auto features =
      agent.featurizer().encode(trace.file(0), 20, pricing::StorageTier::kHot);
  const auto pi = agent.policy_probabilities(features);
  ASSERT_EQ(pi.size(), kActionCount);
  double total = 0.0;
  for (double p : pi) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(A3CAgentTest, TrainingAccumulatesCounters) {
  A3CAgent agent(tiny_config(), 5);
  const trace::RequestTrace trace = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  TrainOptions options;
  options.episodes = 50;
  options.report_every = 25;
  int callbacks = 0;
  options.on_progress = [&](const TrainProgress& progress) {
    ++callbacks;
    EXPECT_GT(progress.env_steps, 0u);
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t episodes_before = counter_value("rl.a3c.train.episodes");
  const std::uint64_t steps_before = counter_value("rl.a3c.train.env_steps");
  agent.train(trace, azure, options);
  EXPECT_EQ(counter_value("rl.a3c.train.episodes") - episodes_before, 50u);
  EXPECT_EQ(counter_value("rl.a3c.train.env_steps") - steps_before,
            agent.trained_steps());
  obs::set_enabled(was_enabled);
  EXPECT_GT(agent.trained_steps(), 50u);
  EXPECT_EQ(callbacks, 2);
}

TEST(A3CAgentTest, TrainingImprovesMeanReward) {
  // On a small trace, 3000 episodes should beat the untrained policy's
  // average reward clearly.
  A3CAgent agent(tiny_config(), 7);
  const trace::RequestTrace trace = small_trace(120);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  double first_window = 0.0, last_window = 0.0;
  TrainOptions options;
  options.episodes = 3000;
  options.report_every = 750;
  int window = 0;
  options.on_progress = [&](const TrainProgress& progress) {
    if (window == 0) first_window = progress.mean_reward;
    last_window = progress.mean_reward;
    ++window;
  };
  agent.train(trace, azure, options);
  EXPECT_GT(last_window, first_window);
}

TEST(A3CAgentTest, GreedyActIsDeterministic) {
  A3CAgent agent(tiny_config(), 9);
  const trace::RequestTrace trace = small_trace();
  const auto features =
      agent.featurizer().encode(trace.file(3), 20, pricing::StorageTier::kCool);
  const Action a = agent.act(features, /*greedy=*/true);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(agent.act(features, true), a);
  EXPECT_LT(a, kActionCount);
}

TEST(A3CAgentTest, ActBatchMatchesScalarActGreedy) {
  A3CAgent agent(tiny_config(), 9);
  const trace::RequestTrace trace = small_trace();
  const std::vector<pricing::StorageTier> current(
      trace.file_count(), pricing::StorageTier::kCool);
  const auto batched =
      agent.act_batch(trace.files(), 20, current, /*greedy=*/true);
  ASSERT_EQ(batched.size(), trace.file_count());
  for (std::size_t i = 0; i < trace.file_count(); ++i) {
    EXPECT_EQ(batched[i],
              agent.act(trace.files()[i], 20, current[i], /*greedy=*/true))
        << "file " << i;
  }
}

TEST(A3CAgentTest, ActBatchMatchesScalarActSampled) {
  A3CAgent agent(tiny_config(), 21);
  const trace::RequestTrace trace = small_trace();
  const std::vector<pricing::StorageTier> current(
      trace.file_count(), pricing::StorageTier::kHot);
  const auto batched =
      agent.act_batch(trace.files(), 25, current, /*greedy=*/false);
  for (std::size_t i = 0; i < trace.file_count(); ++i) {
    EXPECT_EQ(batched[i],
              agent.act(trace.files()[i], 25, current[i], /*greedy=*/false))
        << "file " << i;
  }
}

// run_policy's blocks call act_batch concurrently, one pool thread per
// contiguous block of files: every split, on pools of every size, decides
// as one call over all the files.
TEST(A3CAgentTest, ActBatchIsPoolSizeIndependent) {
  A3CAgent agent(tiny_config(), 23);
  const trace::RequestTrace trace = small_trace(1200);
  const std::span<const trace::FileRecord> files(trace.files());
  const std::vector<pricing::StorageTier> current(
      trace.file_count(), pricing::StorageTier::kCool);
  const std::size_t n = files.size();
  for (const bool greedy : {true, false}) {
    const std::vector<Action> whole =
        agent.act_batch(files, 20, current, greedy);
    for (const std::size_t threads : {1, 2, 3, 4}) {
      util::ThreadPool pool(threads);
      std::vector<Action> blocked(n);
      pool.parallel_for(0, threads, [&](std::size_t b) {
        const std::size_t lo = b * n / threads;
        const std::size_t count = (b + 1) * n / threads - lo;
        const std::vector<Action> actions =
            agent.act_batch(files.subspan(lo, count), 20,
                            std::span(current).subspan(lo, count), greedy);
        std::copy(actions.begin(), actions.end(),
                  blocked.begin() + static_cast<std::ptrdiff_t>(lo));
      });
      EXPECT_EQ(blocked, whole)
          << "greedy=" << greedy << " threads=" << threads;
    }
  }
}

// Batch decisions are row-independent: identical feature rows must decide
// identically wherever they sit in a batch (also across the 256-row forward
// chunks), and reordering a batch must permute the decisions with it.
TEST(A3CAgentTest, DuplicateRowsDecideIdenticallyAtEveryBatchSize) {
  A3CAgent agent(tiny_config(), 4);
  const trace::RequestTrace trace = small_trace();
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{64}, std::size_t{300}}) {
    std::vector<trace::FileRecord> files;
    std::vector<pricing::StorageTier> current;
    for (std::size_t i = 0; i < batch; ++i) {
      files.push_back(trace.file(i % 3));  // every 3rd row is a duplicate
      current.push_back(pricing::StorageTier::kCool);
    }
    for (const bool greedy : {true, false}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " greedy=" + std::to_string(greedy));
      const auto actions = agent.act_batch(files, 20, current, greedy);
      ASSERT_EQ(actions.size(), batch);
      for (std::size_t i = 0; i < batch; ++i)
        EXPECT_EQ(actions[i], actions[i % 3]) << "row " << i;
    }
  }
}

TEST(A3CAgentTest, PermutedBatchPermutesTheDecisions) {
  A3CAgent agent(tiny_config(), 4);
  const trace::RequestTrace trace = small_trace(64);
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{64}}) {
    std::vector<trace::FileRecord> files;
    const std::vector<pricing::StorageTier> current(
        batch, pricing::StorageTier::kHot);
    for (std::size_t i = 0; i < batch; ++i) files.push_back(trace.file(i));
    const auto forward = agent.act_batch(files, 20, current, true);

    std::vector<trace::FileRecord> reversed(files.rbegin(), files.rend());
    const auto backward = agent.act_batch(reversed, 20, current, true);
    ASSERT_EQ(backward.size(), batch);
    for (std::size_t i = 0; i < batch; ++i)
      EXPECT_EQ(backward[i], forward[batch - 1 - i]) << "row " << i;
  }
}

TEST(A3CAgentTest, ActFeaturesBatchMatchesActBatchOnEncodedRows) {
  A3CAgent agent(tiny_config(), 4);
  const trace::RequestTrace trace = small_trace();
  const std::size_t width = agent.featurizer().feature_count();
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{2}, std::size_t{64}, std::size_t{300}}) {
    std::vector<trace::FileRecord> files;
    std::vector<pricing::StorageTier> current;
    std::vector<double> rows(batch * width);
    for (std::size_t i = 0; i < batch; ++i) {
      files.push_back(trace.file(i % 5));  // duplicates in the row buffer too
      current.push_back(pricing::StorageTier::kHot);
      const auto features =
          agent.featurizer().encode(files[i], 20, current[i]);
      std::copy(features.begin(), features.end(),
                rows.begin() + static_cast<std::ptrdiff_t>(i * width));
    }
    const auto reference = agent.act_batch(files, 20, current, true);
    SCOPED_TRACE("batch=" + std::to_string(batch));
    EXPECT_EQ(agent.act_features_batch(rows, batch, true), reference);
  }
}

TEST(A3CAgentTest, ActFeaturesBatchValidatesRowBufferWidth) {
  A3CAgent agent(tiny_config(), 4);
  const std::size_t width = agent.featurizer().feature_count();
  const std::vector<double> rows(width * 2 + 1);  // not a whole row count
  EXPECT_THROW(agent.act_features_batch(rows, 2, true),
               std::invalid_argument);
}

// act_features_batch forwards each distinct row of the call once and
// copies its decision to the rows that repeat it. Whatever the duplicate
// pattern or batch size, every row must still decide exactly as the scalar
// act() does on that row alone.
TEST(A3CAgentTest, ActFeaturesBatchMatchesScalarActUnderEveryDuplicatePattern) {
  A3CAgent agent(tiny_config(), 31);
  const std::size_t width = agent.featurizer().feature_count();
  constexpr std::size_t kChunk = 256;  // act_rows' forward sub-batch
  const std::size_t max_batch = 700;
  const std::vector<double> palette = random_rows(max_batch + 1, width, 77);
  const std::size_t special = max_batch;  // a row no other pattern uses

  struct Pattern {
    std::string name;
    std::function<std::size_t(std::size_t)> source;  // row -> palette row
  };
  const std::vector<Pattern> patterns = {
      {"all-identical", [](std::size_t) { return std::size_t{0}; }},
      {"all-distinct", [](std::size_t i) { return i; }},
      {"every-2nd", [](std::size_t i) { return i % 2 == 0 ? i / 2 : i; }},
      {"every-7th", [](std::size_t i) { return i % 7 == 0 ? i / 7 : i; }},
      {"period-3", [](std::size_t i) { return i % 3; }},
      {"period-chunk", [](std::size_t i) { return i % kChunk; }},
      {"straddles-boundary",
       [special](std::size_t i) {
         return i + 3 >= kChunk && i < kChunk + 3 ? special : i;
       }},
  };
  bool saw_two_actions = false;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{255}, std::size_t{256}, std::size_t{257},
        max_batch}) {
    for (const Pattern& pattern : patterns) {
      std::vector<std::size_t> source(batch);
      for (std::size_t i = 0; i < batch; ++i) source[i] = pattern.source(i);
      const std::vector<double> rows = gather_rows(palette, source, width);
      for (const bool greedy : {true, false}) {
        SCOPED_TRACE(pattern.name + " batch=" + std::to_string(batch) +
                     " greedy=" + std::to_string(greedy));
        std::vector<Action> expected(batch);
        for (std::size_t i = 0; i < batch; ++i) {
          expected[i] = agent.act(
              std::span<const double>(rows).subspan(i * width, width), greedy);
          saw_two_actions |= expected[i] != expected[0];
        }
        const auto actions = agent.act_features_batch(rows, batch, greedy);
        ASSERT_EQ(actions.size(), batch);
        for (std::size_t i = 0; i < batch; ++i)
          ASSERT_EQ(actions[i], expected[i]) << "row " << i;
      }
    }
  }
  // Otherwise a wrong scatter could pass unnoticed.
  EXPECT_TRUE(saw_two_actions);
}

// Rows are deduplicated by bytes, not by value: rows that differ only in the
// sign of a zero, or only in one NaN payload bit, are forwarded apart.
TEST(A3CAgentTest, ActFeaturesBatchForwardsSignedZerosAndNanPayloadsApart) {
  A3CAgent agent(tiny_config(), 33);
  const std::size_t width = agent.featurizer().feature_count();
  const std::vector<double> base = random_rows(1, width, 5);
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7FF8000000000000});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7FF8000000000001});
  const std::vector<std::pair<double, double>> pairs = {{0.0, -0.0},
                                                        {nan_a, nan_b}};
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const auto& [a, b] : pairs) {
    // a, b, a, b: two distinct rows, each repeated once.
    std::vector<double> rows;
    for (const double value : {a, b, a, b}) {
      rows.insert(rows.end(), base.begin(), base.end());
      rows[rows.size() - width] = value;
    }
    for (const bool greedy : {true, false}) {
      const std::uint64_t before = counter_value("rl.a3c.act.forward_rows");
      const auto actions = agent.act_features_batch(rows, 4, greedy);
      EXPECT_EQ(counter_value("rl.a3c.act.forward_rows") - before, 2u);
      for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(actions[i],
                  agent.act(std::span<const double>(rows).subspan(
                                i * width, width),
                            greedy))
            << "row " << i;
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(A3CAgentTest, ActCountsRowsAndForwardedRowsOncePerCall) {
  A3CAgent agent(tiny_config(), 35);
  const std::size_t width = agent.featurizer().feature_count();
  const std::vector<double> palette = random_rows(3, width, 9);
  std::vector<std::size_t> source(300);
  for (std::size_t i = 0; i < source.size(); ++i) source[i] = i % 3;
  const std::vector<double> rows = gather_rows(palette, source, width);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::uint64_t rows_before = counter_value("rl.a3c.act.rows");
  const std::uint64_t forward_before = counter_value("rl.a3c.act.forward_rows");
  agent.act_features_batch(rows, 300, true);
  EXPECT_EQ(counter_value("rl.a3c.act.rows") - rows_before, 300u);
  // The dedup spans the whole call: 3 distinct rows.
  EXPECT_EQ(counter_value("rl.a3c.act.forward_rows") - forward_before, 3u);
  obs::set_enabled(was_enabled);
}

// act_batch dedups on the files' raw states before featurizing: files
// whose read window, yesterday's writes, size and tier match byte for byte
// share one forward, whatever their names or their days outside the window;
// a state that differs in any byte is forwarded on its own.
TEST(A3CAgentTest, ActBatchSharesOneForwardPerRawState) {
  A3CAgent agent(tiny_config(), 37);
  const trace::RequestTrace trace = small_trace();
  constexpr std::size_t kDay = 20;
  const std::size_t h = agent.featurizer().history_len();
  const trace::FileRecord base = trace.file(4);
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7FF8000000000000});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0x7FF8000000000001});
  const pricing::StorageTier cool = pricing::StorageTier::kCool;
  const pricing::StorageTier hot = pricing::StorageTier::kHot;

  struct Case {
    std::string name;
    trace::FileRecord a, b;
    pricing::StorageTier tier_a, tier_b;
    std::uint64_t forwards;
  };
  trace::FileRecord renamed = base;
  renamed.name = "another-name";
  renamed.reads[kDay - h - 1] += 7.0;  // outside the window
  renamed.reads[kDay] += 7.0;          // the decision day itself
  renamed.writes[kDay - 2] += 3.0;     // only yesterday's writes count
  trace::FileRecord positive_zero = base, negative_zero = base;
  positive_zero.reads[kDay - 3] = 0.0;
  negative_zero.reads[kDay - 3] = -0.0;
  trace::FileRecord payload_a = base, payload_b = base;
  payload_a.size_gb = nan_a;
  payload_b.size_gb = nan_b;
  const std::vector<Case> cases = {
      {"equal state, other name and days", base, renamed, cool, cool, 1},
      {"signed zero in reads", positive_zero, negative_zero, cool, cool, 2},
      {"NaN payload in size_gb", payload_a, payload_b, cool, cool, 2},
      {"tier only", base, base, cool, hot, 2},
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const Case& c : cases) {
    // a, b, a, b: each state repeated once.
    const std::vector<trace::FileRecord> files = {c.a, c.b, c.a, c.b};
    const std::vector<pricing::StorageTier> tiers = {c.tier_a, c.tier_b,
                                                     c.tier_a, c.tier_b};
    for (const bool greedy : {true, false}) {
      SCOPED_TRACE(c.name + " greedy=" + std::to_string(greedy));
      const std::uint64_t before = counter_value("rl.a3c.act.forward_rows");
      const auto actions = agent.act_batch(files, kDay, tiers, greedy);
      EXPECT_EQ(counter_value("rl.a3c.act.forward_rows") - before, c.forwards);
      for (std::size_t i = 0; i < files.size(); ++i)
        EXPECT_EQ(actions[i], agent.act(files[i], kDay, tiers[i], greedy))
            << "file " << i;
    }
  }
  obs::set_enabled(was_enabled);
}

// Every file is validated, not only the first of each raw state: a file
// whose history ends before the decision day throws even when the days it
// does have repeat an earlier file's state.
TEST(A3CAgentTest, ActBatchValidatesEveryFileNotOnlyTheDistinctOnes) {
  A3CAgent agent(tiny_config(), 39);
  const trace::RequestTrace trace = small_trace();
  constexpr std::size_t kDay = 20;
  const std::vector<pricing::StorageTier> tiers(3, pricing::StorageTier::kHot);
  for (const bool short_reads : {true, false}) {
    std::vector<trace::FileRecord> files(3, trace.file(2));
    // Shrunk in place, so the series keeps its capacity and its old values
    // past the end: a dedup that read the state without the bounds check
    // would take this file for a repeat of the first two.
    (short_reads ? files[2].reads : files[2].writes).resize(kDay - 1);
    EXPECT_THROW(agent.act_batch(files, kDay, tiers, true), std::out_of_range)
        << "short_reads=" << short_reads;
  }
}

// Duplicated files spread over 2600 rows, more than ten of act_rows'
// 256-row (kForwardRows) forward sub-batches, decide exactly as act() does
// on each file alone, greedy and sampled.
TEST(A3CAgentTest, ActBatchDuplicatesAcrossChunksDecideAsScalarAct) {
  A3CAgent agent(tiny_config(), 41);
  const trace::RequestTrace trace = small_trace(64);
  constexpr std::size_t kDay = 23;
  constexpr std::size_t kFiles = 2600;  // > 10 * kForwardRows
  const std::vector<std::pair<std::string,
                              std::function<std::size_t(std::size_t)>>>
      patterns = {
          {"period-7", [](std::size_t i) { return i % 7; }},
          {"period-64", [](std::size_t i) { return i % 64; }},
          {"runs-of-600", [](std::size_t i) { return (i / 600) % 64; }},
          {"straddles-1024",
           [](std::size_t i) {
             return i + 5 >= 1024 && i < 1024 + 5 ? std::size_t{63} : i % 5;
           }},
      };
  std::vector<pricing::StorageTier> tiers(kFiles);
  for (std::size_t i = 0; i < kFiles; ++i)
    tiers[i] = pricing::tier_from_index((i / 3) % pricing::kTierCount);
  // Rates and sizes spread over decades, so the untrained actor's decisions
  // vary from file to file.
  std::vector<trace::FileRecord> palette = trace.files();
  for (std::size_t k = 0; k < palette.size(); ++k) {
    const double scale = std::pow(4.0, static_cast<double>(k % 9));
    for (double& r : palette[k].reads) r *= scale;
    palette[k].size_gb *= scale;
  }
  bool saw_two_actions = false;
  for (const auto& [name, source] : patterns) {
    std::vector<trace::FileRecord> files;
    files.reserve(kFiles);
    for (std::size_t i = 0; i < kFiles; ++i)
      files.push_back(palette[source(i)]);
    for (const bool greedy : {true, false}) {
      SCOPED_TRACE(name + " greedy=" + std::to_string(greedy));
      std::vector<Action> expected(kFiles);
      for (std::size_t i = 0; i < kFiles; ++i) {
        expected[i] = agent.act(files[i], kDay, tiers[i], greedy);
        saw_two_actions |= expected[i] != expected[0];
      }
      ASSERT_EQ(agent.act_batch(files, kDay, tiers, greedy), expected);
    }
  }
  EXPECT_TRUE(saw_two_actions);
}

TEST(A3CAgentTest, ActBatchValidatesWidths) {
  A3CAgent agent(tiny_config(), 25);
  const trace::RequestTrace trace = small_trace();
  const std::vector<pricing::StorageTier> wrong(3, pricing::StorageTier::kHot);
  EXPECT_THROW(agent.act_batch(trace.files(), 20, wrong, true),
               std::invalid_argument);
}

TEST(A3CAgentTest, MultiWorkerTrainingRuns) {
  A3CConfig config = tiny_config();
  config.workers = 3;
  A3CAgent agent(config, 11);
  const trace::RequestTrace trace = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  TrainOptions options;
  options.episodes = 60;
  options.report_every = 60;
  std::size_t episodes_done = 0;
  options.on_progress = [&](const TrainProgress& progress) {
    episodes_done = progress.episodes_done;
  };
  EXPECT_NO_THROW(agent.train(trace, azure, options));
  EXPECT_EQ(episodes_done, 60u);
  EXPECT_GT(agent.trained_steps(), 0u);
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
                    ("minicost_determinism_" + std::to_string(::getpid()) +
                     "_" + tag + ".txt");
  agent.save(path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

TEST(A3CAgentTest, MultiWorkerTrainingIsRunToRunDeterministic) {
  // The wavefront schedule keys on (episode ordinal, worker window) only,
  // so at a fixed worker count thread timing cannot move a single bit —
  // including heavy oversubscription (8 workers on any host).
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    A3CConfig config = tiny_config();
    config.workers = workers;
    const std::string first = train_and_serialize(config, 23, 150, "r1");
    const std::string second = train_and_serialize(config, 23, 150, "r2");
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second) << "workers=" << workers;
  }
}

// FNV-1a over the bit patterns of every parameter in a saved checkpoint
// (actor then critic), so one 64-bit word pins the trained agent exactly.
std::uint64_t checkpoint_digest(const std::string& bytes) {
  std::istringstream in(bytes);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int net = 0; net < 2; ++net) {
    const nn::Network loaded = nn::load_network(in);
    for (std::size_t l = 0; l < loaded.layer_count(); ++l)
      for (const double p : loaded.layer(l).parameters())
        h = (h ^ std::bit_cast<std::uint64_t>(p)) * 0x100000001B3ULL;
  }
  return h;
}

TEST(A3CAgentTest, TrainedParametersMatchPinnedDigest) {
  // The trainer's kernels may be reblocked, fused or reordered across
  // independent accumulators, but never within one (DESIGN.md §7), so the
  // trained parameters must stay bit-for-bit what they were when these
  // digests were recorded — at every worker window and with both optimizers.
  struct Case {
    std::size_t workers;
    OptimizerKind optimizer;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {1, OptimizerKind::kSgdMomentum, 0x548c977d40721b60ULL},
      {1, OptimizerKind::kRmsProp, 0xa281a5a13cb638c5ULL},
      {2, OptimizerKind::kSgdMomentum, 0x1f32fd6cbd472635ULL},
      {2, OptimizerKind::kRmsProp, 0x6caf770b4633c0c6ULL},
  };
  const trace::RequestTrace trace = small_trace(200);
  for (const Case& c : cases) {
    A3CConfig config = tiny_config();
    config.workers = c.workers;
    config.optimizer = c.optimizer;
    A3CAgent agent(config, 29);
    TrainOptions options;
    options.episodes = 300;
    options.report_every = 300;
    agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
    const auto path = std::filesystem::temp_directory_path() /
                      ("minicost_digest_" + std::to_string(::getpid()) + ".txt");
    agent.save(path);
    std::ifstream file(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    EXPECT_EQ(checkpoint_digest(bytes), c.digest)
        << "workers=" << c.workers
        << " optimizer=" << static_cast<int>(c.optimizer) << " digest=0x"
        << std::hex << checkpoint_digest(bytes);
  }
}

TEST(A3CAgentTest, SaveLoadRoundTripsBehaviour) {
  A3CAgent agent(tiny_config(), 13);
  const trace::RequestTrace trace = small_trace();
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  TrainOptions options;
  options.episodes = 100;
  options.report_every = 100;
  agent.train(trace, azure, options);

  const auto path = std::filesystem::temp_directory_path() /
                    ("minicost_agent_" + std::to_string(::getpid()) + ".txt");
  agent.save(path);
  A3CAgent loaded(tiny_config(), 99);  // different init
  loaded.load(path);
  std::filesystem::remove(path);

  const auto features =
      agent.featurizer().encode(trace.file(1), 30, pricing::StorageTier::kHot);
  EXPECT_EQ(agent.policy_probabilities(features),
            loaded.policy_probabilities(features));
  EXPECT_DOUBLE_EQ(agent.value(features), loaded.value(features));
}

TEST(A3CAgentTest, LoadRejectsArchitectureMismatch) {
  A3CAgent small(tiny_config(), 1);
  A3CConfig big_config = tiny_config();
  big_config.hidden = 32;
  A3CAgent big(big_config, 1);
  const auto path = std::filesystem::temp_directory_path() /
                    ("minicost_agent_mismatch_" + std::to_string(::getpid()) + ".txt");
  small.save(path);
  EXPECT_THROW(big.load(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(A3CAgentTest, ParameterCountScalesWithWidth) {
  A3CConfig narrow = tiny_config();
  A3CConfig wide = tiny_config();
  wide.filters = 32;
  wide.hidden = 32;
  EXPECT_GT(A3CAgent(wide, 1).parameter_count(),
            A3CAgent(narrow, 1).parameter_count());
}

TEST(A3CAgentTest, TrainValidatesTrace) {
  A3CAgent agent(tiny_config(), 15);
  const pricing::PricingPolicy azure = pricing::PricingPolicy::azure_2020();
  trace::RequestTrace empty;
  EXPECT_THROW(agent.train(empty, azure, TrainOptions{}),
               std::invalid_argument);
}

TEST(A3CAgentTest, TrainingRecordsPhaseTimers) {
  const auto timer_count = [](std::string_view name) -> std::uint64_t {
    for (const auto& t : obs::Registry::global().timers())
      if (t.name == name) return t.stats.count;
    return 0;
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  A3CAgent agent(tiny_config(), 19);
  const trace::RequestTrace trace = small_trace();
  TrainOptions options;
  options.episodes = 20;
  options.report_every = 20;
  const std::uint64_t syncs_before = timer_count("rl.a3c.sync");
  agent.train(trace, pricing::PricingPolicy::azure_2020(), options);
  obs::set_enabled(was_enabled);

  EXPECT_GT(timer_count("rl.a3c.rollout"), 0u);
  EXPECT_GT(timer_count("rl.a3c.grad"), 0u);
  EXPECT_GT(timer_count("rl.a3c.opt_step"), 0u);
  // One sync span per trained episode.
  EXPECT_EQ(timer_count("rl.a3c.sync") - syncs_before, 20u);

  bool found_lock_wait = false;
  for (const auto& c : obs::Registry::global().counters())
    if (c.name == "rl.a3c.opt_step.lock_wait_ns") found_lock_wait = true;
  EXPECT_TRUE(found_lock_wait);
}

TEST(A3CStreamTest, EpisodeStreamsAreInjective) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t ordinal = 0; ordinal < 4096; ++ordinal)
    seen.insert(episode_stream(ordinal));
  EXPECT_EQ(seen.size(), 4096u);
  // Worker reconfiguration cannot re-deal streams: the derivation has no
  // other inputs, so equal ordinals map to equal streams...
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
