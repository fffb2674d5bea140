// ParamServer protocol tests (DESIGN.md §14): the wavefront admits every
// sync(e) against exactly the first max(0, e-W+1) applies whatever the
// thread timing, a mid-round snapshot is always some applied prefix, and
// every misuse throws.
//
// The optimizer is plain SGD (momentum 0, lr 1) and episode e's gradient
// on parameter i is -(i+1)·2^e, so after k applies parameter i holds
// exactly (i+1)·(2^k - 1): every prefix is a distinct, exactly
// representable state, and the prefix length can be read back from it.

#include "rl/param_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace minicost::rl {
namespace {

constexpr std::size_t kActor = 3;
constexpr std::size_t kCritic = 2;
constexpr std::size_t kEpisodes = 32;
constexpr std::size_t kThreads = 4;

ParamServer::OptimizerFactory plain_sgd() {
  return [] { return std::make_unique<nn::Sgd>(1.0, 0.0); };
}

// Parameter i's value after the first `applies` applies. The critic's
// parameters continue the actor's index, so no two parameters share a value.
double prefix_value(std::size_t i, std::size_t applies) {
  return static_cast<double>(i + 1) *
         (std::ldexp(1.0, static_cast<int>(applies)) - 1.0);
}

std::vector<double> episode_grads(std::size_t size, std::size_t offset,
                                  std::size_t episode) {
  std::vector<double> grads(size);
  for (std::size_t i = 0; i < size; ++i)
    grads[i] = -static_cast<double>(offset + i + 1) *
               std::ldexp(1.0, static_cast<int>(episode));
  return grads;
}

// The number of applies the state reflects, or -1 if it is no prefix state
// (e.g. a mix of two episodes).
int applied_prefix(const std::vector<double>& actor,
                   const std::vector<double>& critic) {
  for (std::size_t k = 0; k <= kEpisodes; ++k) {
    bool match = true;
    for (std::size_t i = 0; i < kActor; ++i)
      match = match && actor[i] == prefix_value(i, k);
    for (std::size_t i = 0; i < kCritic; ++i)
      match = match && critic[i] == prefix_value(kActor + i, k);
    if (match) return static_cast<int>(k);
  }
  return -1;
}

void assign_zeros(ParamServer& server) {
  server.assign(std::vector<double>(kActor, 0.0),
                std::vector<double>(kCritic, 0.0));
}

// A network of exactly `parameters` parameters (a Dense layer with one
// output), for sync() to load into.
nn::Network net_of(std::size_t parameters) {
  util::Rng rng(1);
  nn::Network net;
  net.add(std::make_unique<nn::Dense>(parameters - 1, 1, rng));
  return net;
}

TEST(ParamServerTest, SyncReadsExactlyTheWindowedAppliedPrefix) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ParamServer server(plain_sgd());
    assign_zeros(server);
    EXPECT_EQ(server.actor_size(), kActor);
    EXPECT_EQ(server.critic_size(), kCritic);
    const std::uint64_t version_before = server.version();
    server.begin_round(kEpisodes, window);

    std::vector<int> synced_prefix(kEpisodes, -1);
    std::vector<int> snapshot_prefixes;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> done{false};

    auto worker = [&](std::uint64_t seed) {
      util::Rng rng(seed);
      nn::Network actor = net_of(kActor), critic = net_of(kCritic);
      std::size_t e = 0;
      while ((e = next.fetch_add(1)) < kEpisodes) {
        server.sync(e, actor, critic);
        synced_prefix[e] = applied_prefix(actor.snapshot_parameters(),
                                          critic.snapshot_parameters());
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.uniform_int(0, 300)));
        server.apply(e, episode_grads(kActor, 0, e),
                     episode_grads(kCritic, kActor, e));
      }
    };
    // A reader taking snapshots while the round runs.
    std::thread reader([&] {
      std::vector<double> actor, critic;
      while (!done.load()) {
        server.snapshot_into(actor, critic);
        snapshot_prefixes.push_back(applied_prefix(actor, critic));
        std::this_thread::yield();
      }
    });
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back(worker, 1000 * window + t);
    for (auto& t : threads) t.join();
    done.store(true);
    reader.join();
    EXPECT_NO_THROW(server.end_round()) << "W=" << window;

    for (std::size_t e = 0; e < kEpisodes; ++e) {
      const std::size_t expected = e + 1 >= window ? e + 1 - window : 0;
      EXPECT_EQ(synced_prefix[e], static_cast<int>(expected))
          << "W=" << window << " episode " << e;
    }
    ASSERT_FALSE(snapshot_prefixes.empty());
    for (std::size_t s = 0; s < snapshot_prefixes.size(); ++s) {
      EXPECT_GE(snapshot_prefixes[s], 0) << "W=" << window << " snapshot " << s;
      if (s > 0) {
        EXPECT_GE(snapshot_prefixes[s], snapshot_prefixes[s - 1]);
      }
    }
    std::vector<double> actor, critic;
    server.snapshot_into(actor, critic);
    EXPECT_EQ(applied_prefix(actor, critic), static_cast<int>(kEpisodes));
    EXPECT_EQ(server.version(), version_before + kEpisodes);
  }
}

TEST(ParamServerTest, NullFactoryIsRejected) {
  EXPECT_THROW(ParamServer(ParamServer::OptimizerFactory{}),
               std::invalid_argument);
}

TEST(ParamServerTest, BeginRoundValidatesState) {
  ParamServer server(plain_sgd());
  EXPECT_THROW(server.begin_round(4, 1), std::logic_error);  // nothing assigned
  assign_zeros(server);
  EXPECT_THROW(server.begin_round(4, 0), std::invalid_argument);
  server.begin_round(0, 1);
  EXPECT_THROW(server.begin_round(0, 1), std::logic_error);  // already active
  EXPECT_NO_THROW(server.end_round());
  EXPECT_THROW(server.end_round(), std::logic_error);  // none active
}

TEST(ParamServerTest, AssignValidatesState) {
  ParamServer server(plain_sgd());
  assign_zeros(server);
  EXPECT_THROW(server.assign(std::vector<double>(kActor + 1, 0.0),
                             std::vector<double>(kCritic, 0.0)),
               std::invalid_argument);
  server.begin_round(1, 1);
  EXPECT_THROW(assign_zeros(server), std::logic_error);
}

TEST(ParamServerTest, EndRoundRejectsUnappliedEpisodes) {
  ParamServer server(plain_sgd());
  assign_zeros(server);
  server.begin_round(2, 1);
  nn::Network actor = net_of(kActor), critic = net_of(kCritic);
  server.sync(0, actor, critic);
  server.apply(0, episode_grads(kActor, 0, 0), episode_grads(kCritic, kActor, 0));
  EXPECT_THROW(server.end_round(), std::logic_error);
}

}  // namespace
}  // namespace minicost::rl
